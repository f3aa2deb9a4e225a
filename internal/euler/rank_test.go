package euler

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"

	"pasgal/internal/graph"
)

// rankShape is a forest whose Euler circuits put the sampled ranker in one
// of its regimes.
type rankShape struct {
	name string
	n    int
	tree []graph.Edge
}

func rankShapes() []rankShape {
	edge := func(u, v int) graph.Edge { return graph.Edge{U: uint32(u), V: uint32(v)} }
	var shapes []rankShape
	add := func(name string, n int, tree []graph.Edge) {
		shapes = append(shapes, rankShape{name, n, tree})
	}

	// One 200k-arc list: thousands of segments, the reduced list as long
	// as it gets.
	var path []graph.Edge
	for i := 0; i < 100000; i++ {
		path = append(path, edge(i, i+1))
	}
	add("path", 100001, path)

	var star []graph.Edge
	for i := 1; i <= 20000; i++ {
		star = append(star, edge(0, i))
	}
	add("star", 20001, star)

	// Every list is shorter than the sample gap and most hold no sampled
	// arc: only a walk from the head reaches them.
	var pairs []graph.Edge
	for i := 0; i < 50000; i++ {
		pairs = append(pairs, edge(2*i, 2*i+1))
	}
	add("pairs", 100000, pairs)

	add("isolated", 1000, nil)

	var cat []graph.Edge
	for i := 0; i < 30000; i++ {
		if i > 0 {
			cat = append(cat, edge(2*(i-1), 2*i))
		}
		cat = append(cat, edge(2*i, 2*i+1))
	}
	add("caterpillar", 60000, cat)

	// Several trees side by side with interleaved labels, plus isolated
	// vertices; tree sizes straddle the sample gap.
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		var sizes []int
		n := 0
		for k := 0; k < 1+rng.IntN(12); k++ {
			s := 1 + rng.IntN(1<<(1+rng.IntN(12)))
			sizes = append(sizes, s)
			n += s
		}
		perm := rng.Perm(n)
		var tree []graph.Edge
		base := 0
		for _, s := range sizes {
			for i := 1; i < s; i++ {
				tree = append(tree, edge(perm[base+rng.IntN(i)], perm[base+i]))
			}
			base += s
		}
		add(fmt.Sprintf("random%d", trial), n, tree)
	}
	return shapes
}

// lists is the input Build hands to rank for s.
func (s rankShape) lists() (succ, heads []uint32) {
	comp := minLabels(s.n, s.tree)
	roots := make([]uint32, 0)
	compIdx := make([]uint32, s.n)
	for v := range comp {
		if comp[v] == uint32(v) {
			compIdx[v] = uint32(len(roots))
			roots = append(roots, uint32(v))
		}
	}
	succ, heads, _ = circuit(s.tree, comp, roots, compIdx)
	return succ, heads
}

// TestRankMatchesSequentialWalk compares rank with walking every list from
// its head, and checks that the lists are the whole forest: every arc is on
// exactly one of them.
func TestRankMatchesSequentialWalk(t *testing.T) {
	for _, s := range rankShapes() {
		succ, heads := s.lists()
		want := make([]uint32, len(succ))
		walked := 0
		for _, h := range heads {
			at := uint32(0)
			for a := h; a != nilArc && walked <= len(succ); a = succ[a] {
				want[a] = at
				at++
				walked++
			}
		}
		if walked != len(succ) {
			t.Fatalf("%s: the lists hold %d arcs, the forest %d", s.name, walked, len(succ))
		}
		got, _ := rank(succ, heads)
		for a := range want {
			if got[a] != want[a] {
				t.Fatalf("%s: pos[%d] = %d, sequential walk says %d", s.name, a, got[a], want[a])
			}
		}
		checkForest(t, s.n, s.tree, build(s.n, s.tree))
	}
}

// TestRankWorkBound pins the ranker's work: two walks over the arcs plus
// pointer jumping over the sampled arcs only. Pointer jumping over the
// whole list reads ⌈log₂ nArcs⌉·nArcs links — 18·nArcs on the path.
func TestRankWorkBound(t *testing.T) {
	for _, s := range rankShapes() {
		succ, heads := s.lists()
		nArcs := len(succ)
		reduced := nArcs / sampleGap
		bound := 3 * nArcs
		if reduced > 1 {
			bound += reduced * bits.Len(uint(reduced-1)) // ⌈log₂ reduced⌉
		}
		if _, reads := rank(succ, heads); reads > int64(bound) {
			t.Errorf("%s: %d link reads for %d arcs, bound %d", s.name, reads, nArcs, bound)
		} else {
			t.Logf("%s: %d arcs, %d reads (%.2f per arc)", s.name, nArcs, reads,
				float64(reads)/float64(max(nArcs, 1)))
		}
	}
}
