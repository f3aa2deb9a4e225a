package core

import (
	"math/rand/v2"
	"testing"

	"pasgal/internal/euler"
	"pasgal/internal/graph"
)

// manyBlocks builds a chain of equal blocks, each a 40-vertex cycle with 320
// random chords through the previous block's articulation vertex, so a
// block's skeleton set is no larger than any other's and the sample's
// plurality set is one block among many. Every edge lies in one block, so
// each vertex's first unrelated arcs stay inside its block too: the
// skeleton's remainder pass has to finish every block but the plurality
// root's. Ids are interleaved across blocks so every chunk of the passes
// touches all of them.
func manyBlocks(blocks int, seed uint64) *graph.Graph {
	const size = 40
	rng := rand.New(rand.NewPCG(seed, 1))
	id := func(b, i int) uint32 { return uint32(i*blocks + b) }
	var edges []graph.Edge
	for b := 0; b < blocks; b++ {
		members := make([]uint32, 0, size+1)
		if b > 0 {
			members = append(members, id(b-1, size-1)) // shared with the previous block
		}
		for i := 0; i < size; i++ {
			members = append(members, id(b, i))
		}
		for i := range members {
			edges = append(edges, graph.Edge{U: members[i], V: members[(i+1)%len(members)]})
		}
		for c := 0; c < 320; c++ {
			edges = append(edges, graph.Edge{
				U: members[rng.IntN(len(members))], V: members[rng.IntN(len(members))]})
		}
	}
	return graph.FromEdges(blocks*size, edges, false, graph.BuildOptions{})
}

// TestBCCSampledSkeletonManyBlocks compares BCC with Hopcroft–Tarjan on
// many-block graphs, several runs each: the forest, and so the skeleton's
// sample, belong to the schedule, and the partition must not depend on
// them.
func TestBCCSampledSkeletonManyBlocks(t *testing.T) {
	for _, blocks := range []int{3, 30, 80} {
		g := manyBlocks(blocks, uint64(blocks))
		for run := 0; run < 4; run++ {
			got, _, err := BCC(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			bccEquivalent(t, "many-blocks", g, got)
		}
	}
}

// TestBCCSkeletonRemainderOnStarForest makes the skeleton's remainder pass
// carry the answer. On a star forest every non-tree edge joins two leaves,
// so it is unrelated, and every tree edge is a fence. Leaves come in
// triangles {c, c+M, c+2M} whose two smaller members are each leaf's
// first unrelated arcs; the triangles are chained only by edges between
// their largest members, which no sweep links, and the chains join
// members of like parity, so an edge is lost if either half of the
// vertices skips its remainder. The graph is one block,
// and only the remainder pass can find that.
func TestBCCSkeletonRemainderOnStarForest(t *testing.T) {
	const m = 400
	n := 3*m + 1
	var edges, star []graph.Edge
	for v := 1; v < n; v++ {
		star = append(star, graph.Edge{U: 0, V: uint32(v)})
	}
	edges = append(edges, star...)
	for c := 1; c <= m; c++ {
		a, b, z := uint32(c), uint32(c+m), uint32(c+2*m)
		edges = append(edges, graph.Edge{U: a, V: b}, graph.Edge{U: b, V: z}, graph.Edge{U: a, V: z})
		if c+2 <= m { // a chain through each parity class: both ends of a link alike
			edges = append(edges, graph.Edge{U: z, V: z + 2})
		}
	}
	edges = append(edges, graph.Edge{U: 1 + 2*m, V: 2 + 2*m}) // the two chains joined
	g := graph.FromEdges(n, edges, false, graph.BuildOptions{})
	f := euler.Build(n, star, make([]uint32, n))
	for run := 0; run < 3; run++ {
		got, _, err := BCCFromForest(g, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bccEquivalent(t, "star-forest", g, got)
		if got.NumBCC != 1 {
			t.Fatalf("NumBCC = %d, want 1", got.NumBCC)
		}
	}
}
