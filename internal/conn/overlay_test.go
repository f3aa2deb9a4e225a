package conn

import (
	"math/rand"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// Functional twins for the edge scan on overlay graphs (epoch
// snapshots from internal/delta): same partition, same canonical labels,
// same forest shape as a plain rebuild of the post-edit graph.

// overlayTwin applies a deterministic random edit batch to the undirected
// base and returns the overlay plus a plain CSR of the same graph.
func overlayTwin(t *testing.T, g *graph.Graph, seed int64) (*graph.Overlay, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dels, adds []graph.Edge
	for u := uint32(0); int(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && rng.Intn(5) == 0 {
				dels = append(dels, graph.Edge{U: u, V: v})
			}
		}
	}
	n := uint32(g.N)
	for i := 0; i < g.N/4; i++ {
		u, v := rng.Uint32()%n, rng.Uint32()%n
		if u == v {
			continue
		}
		adds = append(adds, graph.Edge{U: u, V: v})
	}
	o := graph.OverlayFromEdits(g, dels, adds)
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invariants: %v", err)
	}
	return o, o.Materialize()
}

// TestOverlayComponentsMatchPlain pins the overlay chunked merge scan:
// deletions split components, patch arcs join them, and the canonical
// min-vertex labels must match a plain rebuild exactly.
func TestOverlayComponentsMatchPlain(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid":  gen.Grid2D(25, 25, false, 3),
		"er":    gen.ER(500, 800, false, 4), // disconnected
		"chain": gen.Chain(400, false),
		"star":  gen.Star(100),
	} {
		o, mat := overlayTwin(t, g, 7)
		wantL, wantN := Components(mat)
		gotL, gotN := Components(o)
		if gotN != wantN {
			t.Fatalf("%s: %d components overlay, %d plain", name, gotN, wantN)
		}
		for v := range wantL {
			if gotL[v] != wantL[v] {
				t.Fatalf("%s: label[%d] = %d overlay, %d plain", name, v, gotL[v], wantL[v])
			}
		}
	}
}

// TestOverlaySpanningForest checks the forest built from the overlay
// scan: right size, acyclic, spanning the same components.
func TestOverlaySpanningForest(t *testing.T) {
	o, mat := overlayTwin(t, gen.ER(600, 900, false, 9), 11)
	_, wantL, wantN := SpanningForest(mat)
	edges, labels, count := SpanningForest(o)
	n := mat.N
	if count != wantN || len(edges) != n-wantN {
		t.Fatalf("forest: %d comps / %d edges, want %d / %d", count, len(edges), wantN, n-wantN)
	}
	uf := NewUnionFind(n)
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

// TestOverlayDirectedPanics: the directed-graph guard fires for overlay
// snapshots too.
func TestOverlayDirectedPanics(t *testing.T) {
	o := graph.OverlayFromEdits(gen.Chain(10, true), nil, []graph.Edge{{U: 5, V: 2}})
	for name, call := range map[string]func(){
		"components": func() { Components(o) },
		"forest":     func() { SpanningForest(o) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on a directed overlay", name)
				}
			}()
			call()
		}()
	}
}
