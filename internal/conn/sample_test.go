package conn

import (
	"fmt"
	"testing"

	"pasgal/internal/graph"
)

// samplingShape is an input built to defeat a careless sampled union: the
// sample's plurality set is not the true giant, there is no giant at all,
// or a vertex's first LinkK arcs are self-loops or copies of one edge, so
// the link pass joins nothing there.
type samplingShape struct {
	name  string
	n     int
	edges []graph.Edge
}

func samplingShapes() []samplingShape {
	var shapes []samplingShape
	add := func(name string, n int, edges []graph.Edge) {
		shapes = append(shapes, samplingShape{name, n, edges})
	}
	e := func(u, v int) graph.Edge { return graph.Edge{U: uint32(u), V: uint32(v)} }

	add("isolated", 3000, nil)
	add("isolated-small", 40, nil)

	// 40 equal cycles of 64 vertices, ids interleaved across the cycles so
	// that every chunk of the passes touches all of them.
	var cycles []graph.Edge
	for c := 0; c < 40; c++ {
		for i := 0; i < 64; i++ {
			cycles = append(cycles, e(i*40+c, (i+1)%64*40+c))
		}
	}
	add("equal-cycles", 2560, cycles)

	var star []graph.Edge
	for v := 0; v < 2999; v++ {
		star = append(star, e(2999, v))
	}
	add("star-hub-last", 3000, star)

	var path []graph.Edge
	for v := 2999; v > 0; v-- {
		path = append(path, e(v, v-1))
	}
	add("path-descending", 3000, path)

	// A giant the link pass leaves in pairs beside a 400-cycle it joins
	// whole, so the sample's plurality is the cycle. Partners p_i (ids
	// 0..599) carry a loop and a doubled edge to z_i; z_i (1200..1799)
	// sees the doubled edge first; ladder vertices y_j (600..1199) carry a
	// loop, which sorts before their edges to z_j and z_{j+1}.
	var frag []graph.Edge
	for i := 0; i < 600; i++ {
		p, y, z := i, 600+i, 1200+i
		frag = append(frag, e(p, p), e(p, z), e(p, z), e(y, y), e(y, z))
		if i+1 < 600 {
			frag = append(frag, e(y, z+1))
		}
	}
	for i := 0; i < 400; i++ {
		frag = append(frag, e(1800+i, 1800+(i+1)%400))
	}
	add("fragmented-giant", 2200, frag)

	// Gadgets whose only joining edge is the third arc of both ends: a's
	// list is [a, a, w, w, x] (a loop, then a doubled edge) and x's is
	// [z, z, a], beside a 1 500-vertex cycle holding the sample.
	var gadgets []graph.Edge
	for i := 0; i < 100; i++ {
		z, a, w, x := 4*i, 4*i+1, 4*i+2, 4*i+3
		gadgets = append(gadgets, e(a, a), e(a, w), e(a, w), e(a, x), e(x, z), e(x, z))
		if i%10 == 0 { // every tenth gadget hangs off the cycle by its a
			gadgets = append(gadgets, e(a, 400+i))
		}
	}
	for i := 0; i < 1500; i++ {
		gadgets = append(gadgets, e(400+i, 400+(i+1)%1500))
	}
	add("loop-dup-first", 1900, gadgets)
	return shapes
}

// samplingReps returns the shape as a plain CSR, its compressed form, and
// an overlay whose base lacks every third loop-free edge and whose patch
// adds them back.
func samplingReps(t *testing.T, s samplingShape) map[string]graph.Adjacency {
	t.Helper()
	opt := graph.BuildOptions{KeepSelfLoops: true, KeepDuplicates: true}
	g := graph.FromEdges(s.n, s.edges, false, opt)
	var base, patch []graph.Edge
	for i, e := range s.edges {
		if i%3 == 2 && e.U != e.V {
			patch = append(patch, e)
		} else {
			base = append(base, e)
		}
	}
	o := graph.OverlayFromEdits(graph.FromEdges(s.n, base, false, opt), nil, patch)
	if err := o.Validate(); err != nil {
		t.Fatalf("%s: overlay invariants: %v", s.name, err)
	}
	return map[string]graph.Adjacency{"plain": g, "pz": graph.Compress(g), "overlay": o}
}

// TestSampledComponents checks Components on every sampling shape and
// representation against a sequential search: identical minimum-id labels
// and count.
func TestSampledComponents(t *testing.T) {
	for _, s := range samplingShapes() {
		want, wantN := bruteComponents(graph.FromEdges(s.n, s.edges, false, graph.BuildOptions{}))
		for rep, a := range samplingReps(t, s) {
			got, gotN := Components(a)
			if gotN != wantN {
				t.Fatalf("%s/%s: %d components, want %d", s.name, rep, gotN, wantN)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: label[%d] = %d, want %d", s.name, rep, v, got[v], want[v])
				}
			}
		}
	}
}

// TestSampledSpanningForest checks the forest contract euler.Build relies
// on for every sampling shape and representation: n − c edges, each one
// an edge of the graph, no cycle, the graph's components spanned, and
// labels equal to each component's minimum id.
func TestSampledSpanningForest(t *testing.T) {
	for _, s := range samplingShapes() {
		simple := graph.FromEdges(s.n, s.edges, false, graph.BuildOptions{})
		want, wantN := bruteComponents(simple)
		for rep, a := range samplingReps(t, s) {
			name := fmt.Sprintf("%s/%s", s.name, rep)
			tree, labels, count := SpanningForest(a)
			if count != wantN || len(tree) != s.n-wantN {
				t.Fatalf("%s: %d components and %d edges, want %d and %d", name, count, len(tree), wantN, s.n-wantN)
			}
			uf := newSeqDSU(s.n)
			for _, e := range tree {
				if e.U == e.V || simple.FindArc(e.U, e.V) == ^uint64(0) {
					t.Fatalf("%s: tree edge (%d,%d) is not an edge of the graph", name, e.U, e.V)
				}
				if uf.find(e.U) == uf.find(e.V) {
					t.Fatalf("%s: tree edge (%d,%d) closes a cycle", name, e.U, e.V)
				}
				uf.union(e.U, e.V)
			}
			for v := range want {
				if labels[v] != want[v] {
					t.Fatalf("%s: label[%d] = %d, want the minimum id %d", name, v, labels[v], want[v])
				}
				if uf.find(uint32(v)) != uf.find(want[v]) {
					t.Fatalf("%s: the forest does not join %d to its component's minimum %d", name, v, want[v])
				}
			}
		}
	}
}

// TestPluralityRoot checks the sample's vote on sets of known sizes, and
// that an empty union-find does not fail.
func TestPluralityRoot(t *testing.T) {
	if r := NewUnionFind(0).PluralityRoot(); r != 0 {
		t.Fatalf("empty: %d", r)
	}
	for _, n := range []int{10, 5000} {
		uf := NewUnionFind(n)
		for v := n / 3; v+1 < n; v++ { // one set of two thirds, singletons below it
			uf.Union(uint32(v), uint32(v+1))
		}
		if r := uf.PluralityRoot(); r != uint32(n/3) {
			t.Fatalf("n=%d: plurality root %d, want %d", n, r, n/3)
		}
	}
}
