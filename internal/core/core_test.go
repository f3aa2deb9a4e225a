package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// testGraphs returns a structurally diverse suite of graphs: low diameter,
// high diameter, disconnected, adversarial chains, meshes.
func testGraphs(directed bool) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"chain":    gen.Chain(2000, directed),
		"cycle":    gen.Cycle(1500, directed),
		"grid":     gen.Grid2D(40, 50, directed, 1),
		"rmat":     gen.SocialRMAT(10, 8, directed, 2),
		"er":       gen.ER(1000, 3000, directed, 3),
		"sparse":   gen.ER(1200, 600, directed, 4), // many components
		"singular": graph.FromEdges(1, nil, directed, graph.BuildOptions{}),
	}
	if directed {
		gs["weblike"] = gen.WebLike(4000, 6, 0.3, 50, 5)
		gs["samplegrid"] = gen.SampledGrid(30, 30, 0.8, true, 6)
	} else {
		gs["knn"] = gen.KNN(1500, 4, 8, false, 7)
		gs["trigrid"] = gen.TriGrid(30, 30)
		gs["perforated"] = gen.PerforatedGrid(30, 30, 8, 3, 8)
		gs["star"] = gen.Star(500)
	}
	return gs
}

// optionMatrix exercises the feature flags: default, tiny tau (VGC off),
// mid-size budgets (tau64's 2·64+4 ring), no direction optimization.
func optionMatrix() map[string]Options {
	return map[string]Options{
		"default":  {},
		"tau1":     {Tau: 1},
		"tau32":    {Tau: 32},
		"tau64":    {Tau: 64},
		"nodiropt": {DisableDirectionOpt: true},
	}
}

// --- BFS ---

func TestBFSMatchesSequential(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for name, g := range testGraphs(directed) {
			want := seq.BFS(g, 0)
			for oname, opt := range optionMatrix() {
				got, met, _ := BFS(g, 0, opt)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s/%s directed=%v: dist[%d] = %d, want %d",
							name, oname, directed, v, got[v], want[v])
					}
				}
				if met.Rounds == 0 && g.N > 1 && g.Degree(0) > 0 {
					t.Fatalf("%s/%s: no rounds recorded", name, oname)
				}
			}
		}
	}
}

func TestBFSFromRandomSources(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := gen.SampledGrid(50, 50, 0.85, false, 9)
	for trial := 0; trial < 10; trial++ {
		src := uint32(rng.IntN(g.N))
		want := seq.BFS(g, src)
		got, _, _ := BFS(g, src, Options{})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("src=%d: dist[%d] = %d, want %d", src, v, got[v], want[v])
			}
		}
	}
}

// VGC must slash the number of rounds on a high-diameter graph: a chain of
// length L takes L rounds level-synchronously but ~L/tau with VGC.
func TestBFSVGCReducesRounds(t *testing.T) {
	g := gen.Chain(20000, false)
	_, metVGC, _ := BFS(g, 0, Options{Tau: 512, DisableDirectionOpt: true})
	_, metNo, _ := BFS(g, 0, Options{Tau: 1, DisableDirectionOpt: true})
	if metVGC.Rounds*10 >= metNo.Rounds {
		t.Fatalf("VGC rounds %d not far below no-VGC rounds %d",
			metVGC.Rounds, metNo.Rounds)
	}
	if metNo.Rounds < 19000 {
		t.Fatalf("no-VGC rounds %d suspiciously low for a 20k chain", metNo.Rounds)
	}
}

func TestBFSDirectionOptTriggers(t *testing.T) {
	g := gen.SocialRMAT(12, 16, false, 11)
	_, met, _ := BFS(g, 0, Options{DenseFrac: 0.01})
	if met.BottomUp == 0 {
		t.Fatal("expected at least one bottom-up round on a dense social graph")
	}
}

// --- SCC ---

func sccPartitionsEqual(t *testing.T, name string, g *graph.Graph, got []uint32, gotCount int) {
	t.Helper()
	want, wantCount := seq.TarjanSCC(g)
	if gotCount != wantCount {
		t.Fatalf("%s: SCC count = %d, want %d", name, gotCount, wantCount)
	}
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for v := range got {
		if x, ok := fwd[got[v]]; ok && x != want[v] {
			t.Fatalf("%s: partition mismatch at vertex %d", name, v)
		}
		if y, ok := bwd[want[v]]; ok && y != got[v] {
			t.Fatalf("%s: partition mismatch at vertex %d", name, v)
		}
		fwd[got[v]] = want[v]
		bwd[want[v]] = got[v]
	}
}

// triangleChain returns t directed triangles chained forward (the last
// vertex of triangle i points at the first of triangle i+1): a DAG of t
// three-vertex SCCs that trimming cannot peel, so every SCC round after
// the first picks k > 1 pivots among a large live set.
func triangleChain(t int) *graph.Graph {
	edges := make([]graph.Edge, 0, 4*t)
	for i := 0; i < t; i++ {
		a := uint32(3 * i)
		edges = append(edges, graph.Edge{U: a, V: a + 1}, graph.Edge{U: a + 1, V: a + 2}, graph.Edge{U: a + 2, V: a})
		if i+1 < t {
			edges = append(edges, graph.Edge{U: a + 2, V: a + 3})
		}
	}
	return graph.FromEdges(3*t, edges, true, graph.BuildOptions{})
}

// TestPickPivotsMatchesSort checks SCC's pivot choice against sorting the
// live set by pivotHash: the same vertices in the same order, for random
// ascending live sets of 1 to 10⁴ vertices and k at both ends, and live
// left as it was.
func TestPickPivotsMatchesSort(t *testing.T) {
	old := parallel.SetWorkers(4)
	defer parallel.SetWorkers(old)
	rng := rand.New(rand.NewPCG(7, 8))
	for _, size := range []int{1, 2, 3, 4, 7, 64, 100, 1000, 4095, 4097, 10000} {
		for trial := 0; trial < 4; trial++ {
			live := make([]uint32, 0, size)
			for v := uint32(0); len(live) < size; v++ {
				if rng.IntN(3) == 0 {
					live = append(live, v)
				}
			}
			seed := rng.Uint64()
			ref := slices.Clone(live)
			slices.SortFunc(ref, func(a, b uint32) int {
				return cmp.Compare(pivotHash(seed, a), pivotHash(seed, b))
			})
			before := slices.Clone(live)
			for _, k := range []int{1, 2, 3, size / 3, size - 1, size} {
				if k < 1 || k > size {
					continue
				}
				if got := pickPivots(live, k, seed); !slices.Equal(got, ref[:k]) {
					t.Fatalf("size %d trial %d k %d: pivots %v, want %v", size, trial, k, got, ref[:k])
				}
				if !slices.Equal(live, before) {
					t.Fatalf("size %d trial %d k %d: live reordered", size, trial, k)
				}
			}
		}
	}
}

func TestSCCMatchesTarjan(t *testing.T) {
	gs := testGraphs(true)
	gs["triangles"] = triangleChain(2000)
	for name, g := range gs {
		for oname, opt := range optionMatrix() {
			if oname == "nodiropt" {
				continue // not applicable to SCC
			}
			labels, count, _, _ := SCC(g, opt)
			sccPartitionsEqual(t, name+"/"+oname, g, labels, count)
		}
	}
}

func TestSCCRandomDigraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(300)
		g := gen.ER(n, rng.IntN(4*n+1), true, uint64(500+trial))
		labels, count, _, _ := SCC(g, Options{Tau: 1 + rng.IntN(64)})
		sccPartitionsEqual(t, "random", g, labels, count)
	}
}

func TestSCCLabelsAreRepresentatives(t *testing.T) {
	g := gen.SocialRMAT(10, 8, true, 13)
	labels, _, _, _ := SCC(g, Options{})
	for v, l := range labels {
		if labels[l] != l {
			t.Fatalf("label of %d is %d, which has label %d", v, l, labels[l])
		}
	}
}

// --- BCC ---

func bccEquivalent(t *testing.T, name string, g *graph.Graph, got BCCResult) {
	t.Helper()
	want := seq.HopcroftTarjanBCC(g)
	if got.NumBCC != want.NumBCC {
		t.Fatalf("%s: NumBCC = %d, want %d", name, got.NumBCC, want.NumBCC)
	}
	// Same partition of arcs.
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for e := range got.ArcLabel {
		a, b := got.ArcLabel[e], want.ArcLabel[e]
		if (a == graph.None) != (b == graph.None) {
			t.Fatalf("%s: arc %d labeled-ness differs", name, e)
		}
		if a == graph.None {
			continue
		}
		if x, ok := fwd[a]; ok && x != b {
			t.Fatalf("%s: arc partition mismatch at arc %d", name, e)
		}
		if y, ok := bwd[b]; ok && y != a {
			t.Fatalf("%s: arc partition mismatch at arc %d", name, e)
		}
		fwd[a] = b
		bwd[b] = a
	}
	for v := range got.IsArt {
		if got.IsArt[v] != want.IsArtPort[v] {
			t.Fatalf("%s: articulation[%d] = %v, want %v", name, v, got.IsArt[v], want.IsArtPort[v])
		}
	}
}

func TestBCCMatchesHopcroftTarjan(t *testing.T) {
	for name, g := range testGraphs(false) {
		got, _, _ := BCC(g, Options{})
		bccEquivalent(t, name, g, got)
	}
}

func TestBCCRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(250)
		g := gen.ER(n, rng.IntN(3*n+1), false, uint64(900+trial))
		got, _, _ := BCC(g, Options{})
		bccEquivalent(t, "random", g, got)
	}
}

func TestBCCOnSymmetrizedDirected(t *testing.T) {
	// The paper symmetrizes directed graphs for BCC.
	g := gen.WebLike(3000, 6, 0.25, 40, 14).Symmetrized()
	got, _, _ := BCC(g, Options{})
	bccEquivalent(t, "weblike-sym", g, got)
}

// TestBCCSelfLoopOnRoot: labels are marked used and compacted per vertex,
// and the label of a forest root (the minimum id of its component) is on
// no tree edge — only the root's own self-loops carry it, so a per-vertex
// used set must not lose it. Next to it, a two-vertex component joined by
// a triple edge is one BCC. The oracle takes simple graphs only: it sees
// the same edges with loops and duplicates dropped, and is compared arc by
// arc through the endpoints.
func TestBCCSelfLoopOnRoot(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 2}, // loops on the root and on a leaf
		{U: 3, V: 4}, {U: 3, V: 4}, {U: 4, V: 3}, // triple edge
		{U: 5, V: 5}, // a loop is all of vertex 5's component; 6 is isolated
	}
	g := graph.FromEdges(7, edges, false, graph.BuildOptions{KeepSelfLoops: true, KeepDuplicates: true})
	simple := graph.FromEdges(7, edges, false, graph.BuildOptions{})
	want := seq.HopcroftTarjanBCC(simple)
	wantLabel := map[[2]uint32]uint32{}
	for u := uint32(0); u < uint32(simple.N); u++ {
		for e := simple.Offsets[u]; e < simple.Offsets[u+1]; e++ {
			wantLabel[[2]uint32{u, simple.Edges[e]}] = want.ArcLabel[e]
		}
	}

	got, _, _ := BCC(g, Options{})
	loop := map[uint32]uint32{} // vertex -> label of its self-loops
	fwd, bwd := map[uint32]uint32{}, map[uint32]uint32{}
	for u := uint32(0); u < uint32(g.N); u++ {
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			w, l := g.Edges[e], got.ArcLabel[e]
			if l >= uint32(got.NumBCC) {
				t.Fatalf("arc %d->%d: label %d outside [0,%d)", u, w, l, got.NumBCC)
			}
			if w == u {
				loop[u] = l
				continue
			}
			o := wantLabel[[2]uint32{u, w}]
			if x, ok := fwd[l]; ok && x != o {
				t.Fatalf("arc %d->%d: label %d spans oracle components %d and %d", u, w, l, x, o)
			}
			if y, ok := bwd[o]; ok && y != l {
				t.Fatalf("arc %d->%d: oracle component %d split into %d and %d", u, w, o, y, l)
			}
			fwd[l], bwd[o] = o, l
		}
	}
	if len(fwd) != want.NumBCC || want.NumBCC != 3 {
		t.Fatalf("%d components over the proper edges, oracle %d, want 3", len(fwd), want.NumBCC)
	}
	// The loops on roots 0 and 5 are components of their own; the loop on
	// leaf 2 belongs with the edge to its parent.
	if _, shared := fwd[loop[0]]; shared || loop[0] == loop[5] {
		t.Fatalf("root loop labels %d and %d are not components of their own", loop[0], loop[5])
	}
	if _, shared := fwd[loop[5]]; shared || got.NumBCC != want.NumBCC+2 {
		t.Fatalf("NumBCC = %d with root loop labels %d, %d; want %d", got.NumBCC, loop[0], loop[5], want.NumBCC+2)
	}
	if loop[2] != bwd[wantLabel[[2]uint32{2, 1}]] {
		t.Fatalf("leaf loop labeled %d, its parent edge %d", loop[2], bwd[wantLabel[[2]uint32{2, 1}]])
	}
	for _, v := range []int{1, 3, 4, 6} { // the loop-free vertices
		if got.IsArt[v] != want.IsArtPort[v] {
			t.Fatalf("articulation[%d] = %v, oracle %v", v, got.IsArt[v], want.IsArtPort[v])
		}
	}
}

// --- SSSP ---

func TestSSSPMatchesDijkstra(t *testing.T) {
	policies := []StepPolicy{nil, RhoStepping{Rho: 64}, DeltaStepping{Delta: 8},
		BellmanFordPolicy{}}
	for _, directed := range []bool{false, true} {
		for name, g := range testGraphs(directed) {
			wg := gen.AddUniformWeights(g, 1, 100, 21)
			want := seq.Dijkstra(wg, 0)
			for _, pol := range policies {
				got, _, _ := SSSP(wg, 0, pol, Options{})
				pname := "default"
				if pol != nil {
					pname = pol.Name()
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s/%s directed=%v: dist[%d] = %d, want %d",
							name, pname, directed, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestSSSPSmallTau(t *testing.T) {
	g := gen.AddUniformWeights(gen.SampledGrid(40, 40, 0.85, false, 22), 1, 20, 23)
	want := seq.Dijkstra(g, 5)
	got, _, _ := SSSP(g, 5, RhoStepping{Rho: 16}, Options{Tau: 4})
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestSSSPZeroWeights(t *testing.T) {
	// Zero-weight edges are legal (uint32 weights, no negative cycles).
	g := gen.AddUniformWeights(gen.ER(400, 1600, true, 24), 0, 5, 25)
	want := seq.Dijkstra(g, 0)
	got, _, _ := SSSP(g, 0, nil, Options{})
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// VGC's frontier-growth claim (§2.1): with a local-search budget the
// frontier grows much faster than level-synchronous BFS on a sparse
// large-diameter graph.
func TestRecordFrontiersAndGrowth(t *testing.T) {
	g := gen.Grid2D(30, 1000, false, 77)
	src := uint32(0)
	_, metNo, _ := BFS(g, src, Options{Tau: 1, DisableDirectionOpt: true, RecordFrontiers: true})
	_, metVGC, _ := BFS(g, src, Options{Tau: 512, DisableDirectionOpt: true, RecordFrontiers: true})
	if int64(len(metNo.FrontierSizes)) != metNo.Rounds ||
		int64(len(metVGC.FrontierSizes)) != metVGC.Rounds {
		t.Fatal("FrontierSizes length != Rounds")
	}
	sum := func(s []int64, k int) int64 {
		var acc int64
		for i := 0; i < k && i < len(s); i++ {
			acc += s[i]
		}
		return acc
	}
	// Within the first 10 rounds VGC has put far more vertices through the
	// frontier (it advances many hops per round).
	if sum(metVGC.FrontierSizes, 10) < 3*sum(metNo.FrontierSizes, 10) {
		t.Fatalf("VGC frontier growth too slow: %v vs %v",
			metVGC.FrontierSizes[:min(10, len(metVGC.FrontierSizes))],
			metNo.FrontierSizes[:min(10, len(metNo.FrontierSizes))])
	}
	// Recording off => no series.
	_, metOff, _ := BFS(g, src, Options{})
	if metOff.FrontierSizes != nil {
		t.Fatal("FrontierSizes recorded without the option")
	}
}

// --- metrics sanity ---

func TestMetricsPopulated(t *testing.T) {
	g := gen.Grid2D(60, 60, false, 31)
	_, met, _ := BFS(g, 0, Options{})
	if met.EdgesVisited == 0 || met.VerticesTaken == 0 || met.MaxFrontier == 0 {
		t.Fatalf("BFS metrics empty: %+v", met)
	}
	dg := gen.SocialRMAT(10, 8, true, 32)
	_, _, met, _ = SCC(dg, Options{})
	if met.Phases == 0 {
		t.Fatalf("SCC metrics empty: %+v", met)
	}
}

func TestBFSDenseFracExtremes(t *testing.T) {
	g := gen.SocialRMAT(11, 10, false, 55)
	want := seq.BFS(g, 0)
	// Tiny DenseFrac: nearly every round goes bottom-up.
	gotLow, metLow, _ := BFS(g, 0, Options{DenseFrac: 1e-9})
	// DenseFrac ~1: bottom-up never triggers.
	gotHigh, metHigh, _ := BFS(g, 0, Options{DenseFrac: 0.999999})
	for v := range want {
		if gotLow[v] != want[v] || gotHigh[v] != want[v] {
			t.Fatalf("dist[%d] mismatch under DenseFrac extremes", v)
		}
	}
	if metLow.BottomUp == 0 {
		t.Fatal("tiny DenseFrac never went bottom-up")
	}
	if metHigh.BottomUp != 0 {
		t.Fatal("huge DenseFrac went bottom-up")
	}
}
