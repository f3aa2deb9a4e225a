package main

import (
	"math"
	"testing"
	"time"

	"pasgal"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64
		value float64
		used  float64
	}{
		{1000, 0.95, 950, 0.95},      // 50 samples beyond: the asked percentile stands
		{1000, 0.99, 990, 0.99},      // exactly 10 beyond
		{1000, 0.999, 990, 0.99},     // 1 beyond: lowered until 10 are
		{100, 0.95, 90, 0.90},        // 5 beyond: lowered to p90
		{200, 0.95, 190, 0.95},       // the boundary: exactly 10 beyond
		{201, 0.95, 191, 191. / 201}, // ceil(0.95·201) = 191, 10 beyond
		{15, 0.95, 8, 0.5},           // no tail at all: the median
		{1, 0.95, 1, 0.5},
	} {
		v, used := tailPercentile(seq(tc.n), tc.want)
		if v != tc.value || math.Abs(used-tc.used) > 1e-9 {
			t.Errorf("n=%d want p%g: got %g at %g, want %g at %g", tc.n, 100*tc.want, v, used, tc.value, tc.used)
		}
	}
	if v, _ := tailPercentile(nil, 0.95); v != 0 {
		t.Errorf("no samples: got %g", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "serve.handler", Start: 1 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Name: "core.compute", Start: 1 * ms, End: 7 * ms},
		// A child that overruns its parent counts only where it overlaps.
		{ID: 4, Name: "request", Start: 20 * ms, End: 24 * ms},
		{ID: 5, Parent: 4, Name: "serve.handler", Start: 22 * ms, End: 30 * ms},
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		"request":       {2, 2},
		"serve.handler": {2, 8},
		"core.compute":  {6},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d] = %g ms, want %g", name, i, got[i], w[i])
			}
		}
	}

	rec := newSpanRec()
	root := rec.begin("request", "bfs", 0, 1)
	h := rec.begin("serve.handler", "bfs", root, 1)
	rec.end(h)
	rec.end(root)
	rec.place("core.compute", "bfs", h, 1, time.Hour)
	placed, parent := rec.spans[2], rec.spans[1]
	if placed.Parent != h || placed.Start != parent.Start || placed.End != parent.End {
		t.Errorf("placed span %+v is not clamped to its parent %+v", placed, parent)
	}
	var none *spanRec
	none.end(none.begin("x", "", 0, 0)) // a nil recorder records nothing
}

func TestRequestStream(t *testing.T) {
	hot := []uint32{1, 2}
	cold := make([]uint32, 100)
	for i := range cold {
		cold[i] = uint32(10 + i)
	}
	sp := &servingSpec{hot: true, full: true}
	differ := false
	for c := 0; c < 3; c++ {
		for k := 0; k < 500; k++ {
			a, b := requestAt(7, c, k, sp, hot, cold), requestAt(7, c, k, sp, hot, cold)
			if a != b {
				t.Fatalf("request (7,%d,%d) is not a pure function: %+v vs %+v", c, k, a, b)
			}
			differ = differ || a != requestAt(8, c, k, sp, hot, cold)
			if a.algo == "p2p" && a.src == a.dst {
				t.Fatalf("p2p to itself: %+v", a)
			}
		}
	}
	if !differ {
		t.Error("another seed gives the same requests")
	}
	// One period of the schedule holds the mix, the hot share and the full
	// share exactly.
	algos := map[string]int{}
	nHot, nFull := 0, 0
	for k := 0; k < scheduleLen; k++ {
		r := requestAt(7, 0, k, sp, hot, cold)
		algos[r.algo]++
		if r.hot {
			nHot++
		}
		if r.full {
			nFull++
		}
	}
	if algos["bfs"] != 128 || algos["reachable"] != 64 || algos["p2p"] != 32 || algos["sssp"] != 16 {
		t.Errorf("mix over one period: %v", algos)
	}
	if nHot != scheduleLen/hotEvery {
		t.Errorf("%d hot requests per period, want %d", nHot, scheduleLen/hotEvery)
	}
	if want := (128 + 64 + 16) / fullEvery; nFull != want { // p2p has no array
		t.Errorf("%d full requests per period, want %d", nFull, want)
	}
	// The mutable workload's stream has neither.
	for k := 0; k < scheduleLen; k++ {
		if r := requestAt(7, 0, k, &servingSpec{mutable: true}, hot, cold); r.hot || r.full {
			t.Fatalf("mutable stream drew %+v", r)
		}
	}
	d1, i1 := updateAt(7, 3, tinySocial)
	d2, i2 := updateAt(7, 3, tinySocial)
	if len(d1) != updateDeletes || len(i1) != updateInserts || d1[5] != d2[5] || i1[5] != i2[5] {
		t.Error("update batches are not a pure function of (seed, k)")
	}
}

var (
	tinySocial = gen.SocialRMAT(9, 8, true, 7)              // 512 vertices
	tinyRoad   = gen.SampledGrid(23, 23, roadKeep, true, 7) // 529 vertices
)

func TestPickPoolRejectsSmallReach(t *testing.T) {
	// 256 disjoint two-cycles: the largest SCC reaches 2 of 512 vertices.
	var edges []graph.Edge
	for v := uint32(0); v < 512; v += 2 {
		edges = append(edges, graph.Edge{U: v, V: v + 1}, graph.Edge{U: v + 1, V: v})
	}
	g := graph.FromEdges(512, edges, true, graph.BuildOptions{})
	if _, reach, err := pickPool(g, 1, 8); err == nil {
		t.Errorf("sources reaching %d of 512 vertices were accepted", reach)
	}
	pool, reach, err := pickPool(tinySocial, 1, 64)
	if err != nil || len(pool) != 64 || reach*reachFloor < tinySocial.N {
		t.Errorf("tiny social: pool %d reach %d err %v", len(pool), reach, err)
	}
}

// TestSmokeAnalytics runs each analytics workload's op list once on a
// 512-vertex input, checked against the oracles like a real run.
func TestSmokeAnalytics(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		spec *analyticsSpec
		ops  int
	}{
		{tinySocial, workloads[0].analytics, cycleBFS + cycleSSSP + 3},
		{tinyRoad, workloads[1].analytics, cycleBFS + cycleSSSP + 2},
	} {
		pool, _, err := pickPool(tc.g, 7, hotIDs+coldIDs)
		if err != nil || len(pool) < batchLanes+ssspSources {
			t.Fatalf("pool of %d: %v", len(pool), err)
		}
		a := &analyticsRun{spec: tc.spec, g: tc.g, sym: tc.g.Symmetrized(),
			wg:      weigh(tc.g),
			bfsSrcs: pool[:batchLanes], ssspSrcs: pool[batchLanes : batchLanes+ssspSources]}
		a.or = traversalOracle(a.g, a.wg, a.bfsSrcs, a.ssspSrcs)
		a.or.addComponents(a.g, a.sym)
		req := 0
		rec := newSpanRec()
		samples, failed := a.cycle(0, pasgal.Options{}, rec, &req)
		if failed != 0 || len(samples) != tc.ops || len(rec.spans) != 2*tc.ops {
			t.Errorf("%d ops, %d failed, %d spans; want %d ops, none failed", len(samples), failed, len(rec.spans), tc.ops)
		}
		// A wrong oracle must show up as failures.
		a.or.sccCount++
		if _, failed := a.cycle(1, pasgal.Options{}, nil, &req); failed != 1 {
			t.Errorf("a wrong SCC oracle gave %d failures, want 1", failed)
		}
	}
}

// TestSmokeServing sends each serving workload's request stream to an
// in-process server over a 512-vertex input.
func TestSmokeServing(t *testing.T) {
	for _, w := range workloads[2:] {
		g := tinySocial
		pool, reach, err := pickPool(g, 7, hotIDs+coldIDs)
		if err != nil {
			t.Fatal(err)
		}
		s := &serveRun{spec: w.serving, name: "tiny", seed: 7, base: g,
			hot: pool[:hotIDs], cold: pool[hotIDs:], reach: reach}
		s.or = traversalOracle(g, weigh(g), s.hot, s.hot)
		var adj graph.Adjacency = g
		if s.spec.pz {
			adj = graph.Compress(g)
		}
		srv, err := serve.NewAdj(map[string]graph.Adjacency{"tiny": adj},
			serve.Config{Mutable: s.spec.mutable, CompactFraction: compactFraction})
		if err != nil {
			t.Fatal(err)
		}
		ht := handlerTarget{srv.Handler()}
		ws := s.window(ht, 250*time.Millisecond, 2, nil)
		if ws.failed.n != 0 || len(ws.reads) == 0 {
			t.Errorf("%s: %d reads, %d failed", w.name, len(ws.reads), ws.failed.n)
		}
		if s.spec.mutable {
			if ws.updates == 0 {
				t.Errorf("%s: the writer sent nothing", w.name)
			}
			if n := s.finalCheck(ht, ws.updates, &ws.failed); n == 0 || ws.failed.n != 0 {
				t.Errorf("%s: final check: %d queries, %d failed", w.name, n, ws.failed.n)
			}
			// The final check must notice a lost batch.
			if s.finalCheck(ht, ws.updates+5, &ws.failed); ws.failed.n == 0 {
				t.Errorf("%s: final check accepted a graph five batches behind", w.name)
			}
		}
		srv.Close()
	}
}
