package conn

import (
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// TestCompressedComponentsMatchPlain pins the edge scan on a compressed
// graph: the same graph must yield the same component partition and
// count through both representations.
func TestCompressedComponentsMatchPlain(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid":     gen.Grid2D(25, 25, false, 3),
		"er":       gen.ER(500, 800, false, 4), // disconnected
		"chain":    gen.Chain(400, false),
		"star":     gen.Star(100),
		"isolated": graph.FromEdges(40, nil, false, graph.BuildOptions{}),
	} {
		c := graph.Compress(g)
		wantL, wantN := Components(g)
		gotL, gotN := Components(c)
		if gotN != wantN {
			t.Fatalf("%s: %d components compressed, %d plain", name, gotN, wantN)
		}
		for v := range wantL {
			if gotL[v] != wantL[v] {
				// Labels are canonical (component minima), so they must be
				// identical, not merely partition-equivalent.
				t.Fatalf("%s: label[%d] = %d compressed, %d plain", name, v, gotL[v], wantL[v])
			}
		}
	}
}

// TestCompressedSpanningForest checks the forest built from the
// compressed scan: right size, acyclic, spanning the same components.
func TestCompressedSpanningForest(t *testing.T) {
	g := gen.ER(600, 900, false, 9)
	c := graph.Compress(g)
	_, wantL, wantN := SpanningForest(g)
	edges, labels, count := SpanningForest(c)
	if count != wantN || len(edges) != g.N-wantN {
		t.Fatalf("forest: %d comps / %d edges, want %d / %d", count, len(edges), wantN, g.N-wantN)
	}
	uf := NewUnionFind(g.N)
	for _, e := range edges {
		if !uf.Union(e.U, e.V) {
			t.Fatalf("forest edge (%d,%d) closes a cycle", e.U, e.V)
		}
	}
	for v := range labels {
		if labels[v] != wantL[v] {
			t.Fatalf("label[%d] = %d, plain %d", v, labels[v], wantL[v])
		}
	}
}

// TestCompressedDirectedPanics: the directed-graph guard fires for the
// compressed representation too.
func TestCompressedDirectedPanics(t *testing.T) {
	c := graph.Compress(gen.Chain(10, true))
	for name, call := range map[string]func(){
		"components": func() { Components(c) },
		"forest":     func() { SpanningForest(c) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on a directed compressed graph", name)
				}
			}()
			call()
		}()
	}
}
