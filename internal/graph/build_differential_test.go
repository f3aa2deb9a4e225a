package graph

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pasgal/internal/parallel"
)

// This file pins the counting builders (FromEdges, Transpose, Symmetrized)
// against a retained, deliberately naive reference builder across the full
// BuildOptions matrix and a set of adversarial shapes. The reference shares
// no code with the builders: per-vertex append lists, sort.SliceStable,
// map-free linear dedup.

type refArc struct{ v, w uint32 }

// referenceAdjacency computes, sequentially and obviously, the per-vertex
// adjacency (sorted by destination; deduplicated with min weight unless
// KeepDuplicates) that FromEdges must produce.
func referenceAdjacency(n int, edges []Edge, directed bool, opt BuildOptions) [][]refArc {
	adj := make([][]refArc, n)
	add := func(u, v, w uint32) {
		if !opt.KeepSelfLoops && u == v {
			return
		}
		adj[u] = append(adj[u], refArc{v, w})
	}
	for _, e := range edges {
		add(e.U, e.V, e.W)
		if opt.Symmetrize || !directed {
			add(e.V, e.U, e.W)
		}
	}
	for u := range adj {
		l := adj[u]
		sort.SliceStable(l, func(i, j int) bool { return l[i].v < l[j].v })
		if !opt.KeepDuplicates {
			out := l[:0]
			for _, a := range l {
				if len(out) > 0 && out[len(out)-1].v == a.v {
					if a.w < out[len(out)-1].w {
						out[len(out)-1].w = a.w // min weight wins
					}
					continue
				}
				out = append(out, a)
			}
			adj[u] = out
		}
	}
	return adj
}

// canonical returns a vertex's (v,w) pairs in a comparison-stable order.
// Adjacency is sorted by destination; the relative order of equal-(u,v)
// duplicates' weights is unspecified (short lists are shell-sorted, which
// is not stable), so ties are broken by weight on both sides. With
// unweighted graphs weights are ignored entirely.
func canonical(arcs []refArc, weighted bool) []refArc {
	out := append([]refArc(nil), arcs...)
	if !weighted {
		for i := range out {
			out[i].w = 0
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v < out[j].v
		}
		return out[i].w < out[j].w
	})
	return out
}

func graphAdjacency(g *Graph, u uint32) []refArc {
	nbs := g.Neighbors(u)
	out := make([]refArc, len(nbs))
	for i, v := range nbs {
		out[i] = refArc{v: v}
		if g.Weighted() {
			out[i].w = g.NeighborWeights(u)[i]
		}
	}
	return out
}

func checkAgainstReference(t *testing.T, label string, n int, edges []Edge, directed bool, opt BuildOptions) {
	t.Helper()
	inputCopy := append([]Edge(nil), edges...)
	g := FromEdges(n, edges, directed, opt)
	for i := range edges {
		if edges[i] != inputCopy[i] {
			t.Fatalf("%s: FromEdges modified its input at %d", label, i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if wantDirected := directed && !opt.Symmetrize; g.Directed != wantDirected {
		t.Fatalf("%s: Directed=%v, want %v", label, g.Directed, wantDirected)
	}
	if (g.Weights != nil) != opt.Weighted {
		t.Fatalf("%s: weights presence %v, want %v", label, g.Weights != nil, opt.Weighted)
	}
	ref := referenceAdjacency(n, edges, directed, opt)
	for u := 0; u < n; u++ {
		want := canonical(ref[u], opt.Weighted)
		got := canonical(graphAdjacency(g, uint32(u)), opt.Weighted)
		if len(want) != len(got) {
			t.Fatalf("%s: vertex %d degree %d, want %d", label, u, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: vertex %d arc %d = %+v, want %+v", label, u, i, got[i], want[i])
			}
		}
	}
	if g.Directed {
		checkTransposeAgainst(t, label, g)
	}
}

// checkTransposeAgainst verifies that Transpose holds exactly the reversed
// arc multiset of g, weights riding along.
func checkTransposeAgainst(t *testing.T, label string, g *Graph) {
	t.Helper()
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s transpose: %v", label, err)
	}
	if tr.M() != g.M() {
		t.Fatalf("%s transpose: M=%d, want %d", label, tr.M(), g.M())
	}
	fwd := arcMultiset(g, false)
	rev := arcMultiset(tr, true)
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("%s transpose: arc %d = %v, want %v", label, i, rev[i], fwd[i])
		}
	}
}

type arcTriple struct{ u, v, w uint32 }

func arcMultiset(g *Graph, reversed bool) []arcTriple {
	out := make([]arcTriple, 0, g.M())
	for u := uint32(0); int(u) < g.N; u++ {
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			a := arcTriple{u: u, v: g.Edges[i]}
			if reversed {
				a.u, a.v = a.v, a.u
			}
			if g.Weighted() {
				a.w = g.Weights[i]
			}
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].u != out[j].u {
			return out[i].u < out[j].u
		}
		if out[i].v != out[j].v {
			return out[i].v < out[j].v
		}
		return out[i].w < out[j].w
	})
	return out
}

// diffShape is one adversarial input shape for the differential sweep.
type diffShape struct {
	name  string
	n     int
	edges []Edge
}

func differentialShapes() []diffShape {
	rng := rand.New(rand.NewPCG(2024, 8))
	shapes := []diffShape{
		{name: "empty", n: 0},
		{name: "isolated", n: 7},
		{name: "single-self-loop", n: 1, edges: []Edge{{0, 0, 5}, {0, 0, 2}, {0, 0, 9}}},
	}
	// All self-loops.
	loops := make([]Edge, 200)
	for i := range loops {
		u := uint32(rng.IntN(50))
		loops[i] = Edge{U: u, V: u, W: rng.Uint32N(100)}
	}
	shapes = append(shapes, diffShape{name: "all-self-loops", n: 50, edges: loops})
	// Star out of / into a hub: the maximally skewed degree distribution.
	starOut := make([]Edge, 6000)
	starIn := make([]Edge, 6000)
	for i := range starOut {
		leaf := uint32(1 + rng.IntN(1999))
		starOut[i] = Edge{U: 0, V: leaf, W: rng.Uint32N(100)}
		starIn[i] = Edge{U: leaf, V: 0, W: rng.Uint32N(100)}
	}
	shapes = append(shapes,
		diffShape{name: "star-out", n: 2000, edges: starOut},
		diffShape{name: "star-in", n: 2000, edges: starIn})
	// Duplicate-heavy multigraph over a tiny vertex set.
	dups := make([]Edge, 8000)
	for i := range dups {
		dups[i] = Edge{U: uint32(rng.IntN(40)), V: uint32(rng.IntN(40)), W: rng.Uint32N(16)}
	}
	shapes = append(shapes, diffShape{name: "duplicate-heavy", n: 40, edges: dups})
	// Power-law-ish skew: source density piles up on the low ids.
	pow := make([]Edge, 20000)
	for i := range pow {
		f := rng.Float64()
		f = f * f * f * f
		pow[i] = Edge{
			U: uint32(f * 4095),
			V: uint32(rng.IntN(4096)),
			W: rng.Uint32N(1000),
		}
	}
	shapes = append(shapes, diffShape{name: "power-law", n: 4096, edges: pow})
	// Uniform random, with more arcs than vertices.
	uni := make([]Edge, 9000)
	for i := range uni {
		uni[i] = Edge{U: uint32(rng.IntN(3000)), V: uint32(rng.IntN(3000)), W: rng.Uint32N(1000)}
	}
	shapes = append(shapes, diffShape{name: "uniform", n: 3000, edges: uni})
	// Many vertices, one set with ids past 16 bits, and self-loops mixed
	// in so the drop runs on both.
	for _, big := range []struct {
		name string
		n    int
	}{{"many-vertices", 9000}, {"ids-past-16-bits", 70000}} {
		es := make([]Edge, 24000)
		for i := range es {
			u := uint32(rng.IntN(big.n))
			v := uint32(rng.IntN(big.n))
			if i%97 == 0 {
				v = u // sprinkle self-loops
			}
			if i%11 == 0 {
				u = uint32(rng.IntN(5)) // a few hub sources for long lists
			}
			es[i] = Edge{U: u, V: v, W: rng.Uint32N(1000)}
		}
		shapes = append(shapes, diffShape{name: big.name, n: big.n, edges: es})
	}
	// Tiny inputs.
	tiny := make([]Edge, 25)
	for i := range tiny {
		tiny[i] = Edge{U: uint32(rng.IntN(10)), V: uint32(rng.IntN(10)), W: rng.Uint32N(9)}
	}
	shapes = append(shapes, diffShape{name: "tiny", n: 10, edges: tiny})
	path := make([]Edge, 63)
	for i := range path {
		path[i] = Edge{U: uint32(i), V: uint32(i + 1), W: uint32(i)}
	}
	shapes = append(shapes, diffShape{name: "path", n: 64, edges: path})
	return shapes
}

// TestBuildDifferential sweeps every shape through the full BuildOptions
// matrix (directedness x Symmetrize x Weighted x KeepSelfLoops x
// KeepDuplicates) against the reference builder.
func TestBuildDifferential(t *testing.T) {
	for _, shape := range differentialShapes() {
		for _, dir := range []struct {
			directed   bool
			symmetrize bool
		}{{true, false}, {false, false}, {false, true}} {
			for _, weighted := range []bool{false, true} {
				for _, keepLoops := range []bool{false, true} {
					for _, keepDups := range []bool{false, true} {
						opt := BuildOptions{
							Symmetrize:     dir.symmetrize,
							Weighted:       weighted,
							KeepSelfLoops:  keepLoops,
							KeepDuplicates: keepDups,
						}
						label := fmt.Sprintf("%s/dir=%v/sym=%v/w=%v/loops=%v/dups=%v",
							shape.name, dir.directed, dir.symmetrize, weighted, keepLoops, keepDups)
						checkAgainstReference(t, label, shape.n, shape.edges, dir.directed, opt)
					}
				}
			}
		}
	}
}

// TestBuildDifferentialParallelPath repeats the sweep's biggest shapes at
// forced team sizes, so the counting scatter runs with several range
// counts r = min(workers, m/n) even on small CI machines.
func TestBuildDifferentialParallelPath(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		old := parallel.SetWorkers(p)
		for _, shape := range differentialShapes() {
			if len(shape.edges) < 5000 {
				continue
			}
			for _, keepDups := range []bool{false, true} {
				opt := BuildOptions{Weighted: true, KeepDuplicates: keepDups}
				label := fmt.Sprintf("p%d/%s/dups=%v", p, shape.name, keepDups)
				checkAgainstReference(t, label, shape.n, shape.edges, true, opt)
				checkAgainstReference(t, label+"/undirected", shape.n, shape.edges, false, opt)
			}
		}
		parallel.SetWorkers(old)
	}
}

// transposeOracle is the reference builder's graph of g's reversed arc
// list: every arc kept, self-loops and duplicates included.
func transposeOracle(g *Graph) *Graph {
	return referenceGraph(g.N, edgeList(g, true), true, BuildOptions{
		Weighted: g.Weighted(), KeepSelfLoops: true, KeepDuplicates: true,
	})
}

// symmetrizedOracle is the reference builder's undirected graph of g's arc
// list: self-loops dropped, one arc per neighbor with the smallest weight.
func symmetrizedOracle(g *Graph) *Graph {
	return referenceGraph(g.N, edgeList(g, false), false, BuildOptions{Weighted: g.Weighted()})
}

// referenceGraph lays referenceAdjacency's lists out as a CSR graph.
func referenceGraph(n int, edges []Edge, directed bool, opt BuildOptions) *Graph {
	g := &Graph{N: n, Offsets: make([]uint64, n+1), Edges: []uint32{}, Directed: directed && !opt.Symmetrize}
	if opt.Weighted {
		g.Weights = []uint32{}
	}
	for u, l := range referenceAdjacency(n, edges, directed, opt) {
		for _, a := range l {
			g.Edges = append(g.Edges, a.v)
			if opt.Weighted {
				g.Weights = append(g.Weights, a.w)
			}
		}
		g.Offsets[u+1] = uint64(len(g.Edges))
	}
	return g
}

// edgeList returns g's arcs as edges, reversed if asked.
func edgeList(g *Graph, reversed bool) []Edge {
	edges := make([]Edge, 0, g.M())
	for u := uint32(0); int(u) < g.N; u++ {
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			e := Edge{U: u, V: g.Edges[i]}
			if reversed {
				e.U, e.V = e.V, e.U
			}
			if g.Weighted() {
				e.W = g.Weights[i]
			}
			edges = append(edges, e)
		}
	}
	return edges
}

// checkIdentical asserts byte-identical Offsets and Edges and the same
// weights, compared as a multiset within each run of equal (u,v) arcs:
// the order of duplicates' weights is unspecified (§2.8).
func checkIdentical(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.N != want.N || got.Directed != want.Directed || got.Weighted() != want.Weighted() {
		t.Fatalf("%s: shape n=%d directed=%v weighted=%v, want n=%d directed=%v weighted=%v",
			label, got.N, got.Directed, got.Weighted(), want.N, want.Directed, want.Weighted())
	}
	if !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("%s: Offsets differ", label)
	}
	if !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: Edges differ", label)
	}
	if !got.Weighted() {
		return
	}
	for u := 0; u < got.N; u++ {
		lo, hi := got.Offsets[u], got.Offsets[u+1]
		for run := lo; run < hi; {
			end := run + 1
			for end < hi && got.Edges[end] == got.Edges[run] {
				end++
			}
			a := slices.Clone(got.Weights[run:end])
			b := slices.Clone(want.Weights[run:end])
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Fatalf("%s: weights of arc (%d,%d) = %v, want %v", label, u, got.Edges[run], a, b)
			}
			run = end
		}
	}
}

// derivedShapes are random multigraphs kept with their duplicates and
// self-loops, every arc carrying its own weight: n = 0 and 1, a few
// hundred arcs, sparse (m < n, a single counting range), dense enough for
// four ranges with hub lists, and ids past 16 bits.
func derivedShapes() []*Graph {
	rng := rand.New(rand.NewPCG(39, 4))
	var gs []*Graph
	for _, sz := range []struct{ n, m, hubs int }{
		{0, 0, 0}, {1, 5, 0}, {40, 300, 0}, {3000, 1200, 0},
		{9000, 40000, 3}, {70000, 200000, 5},
	} {
		edges := make([]Edge, sz.m)
		for i := range edges {
			u, v := uint32(rng.IntN(sz.n)), uint32(rng.IntN(sz.n))
			switch {
			case i%13 == 0:
				v = u // self-loops
			case i%7 == 0 && i > 0:
				u, v = edges[i-1].U, edges[i-1].V // a duplicate of the previous arc
			case sz.hubs > 0 && i%11 == 0:
				u = uint32(rng.IntN(sz.hubs)) // long out-lists
			case sz.hubs > 0 && i%17 == 0:
				v = uint32(rng.IntN(sz.hubs)) // long in-lists
			}
			edges[i] = Edge{U: u, V: v, W: uint32(i)}
		}
		for _, weighted := range []bool{true, false} {
			gs = append(gs, FromEdges(sz.n, edges, true, BuildOptions{
				Weighted: weighted, KeepDuplicates: true, KeepSelfLoops: true,
			}))
		}
	}
	return gs
}

// TestTransposeDifferential pins the counting transpose, byte for byte,
// to the reference-built oracle at 1–4 workers.
func TestTransposeDifferential(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		old := parallel.SetWorkers(p)
		for _, g := range derivedShapes() {
			label := fmt.Sprintf("p%d/%v", p, g)
			fresh := &Graph{N: g.N, Offsets: g.Offsets, Edges: g.Edges, Weights: g.Weights, Directed: true}
			tr := fresh.Transpose()
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkIdentical(t, label, tr, transposeOracle(g))
			if tr.Transpose() != fresh {
				t.Fatalf("%s: the transpose's own transpose is not g", label)
			}
		}
		parallel.SetWorkers(old)
	}
}

// TestSymmetrizedDifferential pins the merge symmetrize, byte for byte, to
// the reference-built oracle at 1–4 workers, and checks it leaves the
// transpose cached on g.
func TestSymmetrizedDifferential(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		old := parallel.SetWorkers(p)
		for _, g := range derivedShapes() {
			label := fmt.Sprintf("p%d/%v", p, g)
			fresh := &Graph{N: g.N, Offsets: g.Offsets, Edges: g.Edges, Weights: g.Weights, Directed: true}
			s := fresh.Symmetrized()
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkIdentical(t, label, s, symmetrizedOracle(g))
			if fresh.tr == nil {
				t.Fatalf("%s: Symmetrized did not leave the transpose cached", label)
			}
		}
		parallel.SetWorkers(old)
	}
}

// TestTransposeAuxSpace bounds what one Transpose allocates beyond its
// output: the counting rows (at most 4 bytes per arc) plus O(n).
func TestTransposeAuxSpace(t *testing.T) {
	old := parallel.SetWorkers(4)
	defer parallel.SetWorkers(old)
	rng := rand.New(rand.NewPCG(39, 5))
	const n, m = 1 << 15, 1 << 19
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: uint32(rng.IntN(n)), V: uint32(rng.IntN(n)), W: uint32(i)}
	}
	for _, weighted := range []bool{false, true} {
		g := FromEdges(n, edges, true, BuildOptions{Weighted: weighted, KeepDuplicates: true})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := g.Transpose()
		runtime.ReadMemStats(&after)
		out := 8*len(tr.Offsets) + 4*len(tr.Edges) + 4*len(tr.Weights)
		allowed := out + 4*g.M() + 8*n + 1<<16
		if got := int(after.TotalAlloc - before.TotalAlloc); got > allowed {
			t.Fatalf("weighted=%v: Transpose allocated %d bytes, want <= %d (output %d + 4m %d + O(n))",
				weighted, got, allowed, out, 4*g.M())
		}
	}
}

// TestFromEdgesAuxSpace bounds what one FromEdges allocates beyond its
// output: the unsorted Edges and Weights it compacts from and the counting
// rows, at most 4 bytes per arc each, plus O(n).
func TestFromEdgesAuxSpace(t *testing.T) {
	old := parallel.SetWorkers(4)
	defer parallel.SetWorkers(old)
	rng := rand.New(rand.NewPCG(41, 5))
	const n, m = 1 << 15, 1 << 19
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: uint32(rng.IntN(n)), V: uint32(rng.IntN(n)), W: uint32(i)}
	}
	for _, weighted := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := FromEdges(n, edges, true, BuildOptions{Weighted: weighted})
		runtime.ReadMemStats(&after)
		out := 8*len(g.Offsets) + 4*len(g.Edges) + 4*len(g.Weights)
		allowed := out + 12*m + 1<<16
		if got := int(after.TotalAlloc - before.TotalAlloc); got > allowed {
			t.Fatalf("weighted=%v: FromEdges allocated %d bytes, want <= %d (output %d + 12m %d + 64 KiB)",
				weighted, got, allowed, out, 12*m)
		}
	}
}
