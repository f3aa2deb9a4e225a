package bench

import (
	"time"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// Result holds one (graph x problem) measurement: per-implementation
// median seconds and metrics. The map keys are implementation names; names
// ending in "*" are sequential baselines (the paper's convention).
type Result struct {
	Graph    string
	Category string
	N, M     int
	Times    map[string]float64
	Metrics  map[string]*core.Metrics
	Extra    map[string]string // e.g. Tarjan–Vishkin aux bytes
}

// timed runs fn reps times and returns the median duration in seconds.
func timed(reps int, fn func()) float64 {
	if reps < 1 {
		reps = 1
	}
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start).Seconds()
	}
	// Median by insertion (reps is tiny).
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j-1] > times[j]; j-- {
			times[j-1], times[j] = times[j], times[j-1]
		}
	}
	return times[len(times)/2]
}

// PickSource returns a good BFS/SSSP source: the maximum-degree vertex,
// which sits inside the giant component on every workload in the registry.
func PickSource(g *graph.Graph) uint32 {
	best, bestDeg := uint32(0), -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(uint32(v)); d > bestDeg {
			best, bestDeg = uint32(v), d
		}
	}
	return best
}

// BFSImpls names the implementations in the paper's BFS table.
var BFSImpls = []string{"PASGAL", "GBBS", "GAPBS", "SeqQueue*"}

// RunBFS measures every BFS implementation on g.
func RunBFS(name, category string, g *graph.Graph, reps int) Result {
	return RunBFSOpt(name, category, g, reps, core.Options{})
}

// RunBFSOpt is RunBFS with Options (tracer, knobs) threaded through PASGAL
// and every baseline.
func RunBFSOpt(name, category string, g *graph.Graph, reps int, opt core.Options) Result {
	src := PickSource(g)
	res := newResult(name, category, g)
	var met *core.Metrics
	res.Times["PASGAL"] = timed(reps, func() { _, met, _ = core.BFS(g, src, opt) })
	res.Metrics["PASGAL"] = met
	res.Times["GBBS"] = timed(reps, func() { _, met, _ = baseline.GBBSBFS(g, src, opt) })
	res.Metrics["GBBS"] = met
	res.Times["GAPBS"] = timed(reps, func() { _, met, _ = baseline.GAPBSBFS(g, src, opt) })
	res.Metrics["GAPBS"] = met
	res.Times["SeqQueue*"] = timed(reps, func() { seq.BFS(g, src) })
	return res
}

// SCCImpls names the implementations in the paper's SCC table.
var SCCImpls = []string{"PASGAL", "GBBS", "Multistep", "Tarjan*"}

// RunSCC measures every SCC implementation on a directed g.
func RunSCC(name, category string, g *graph.Graph, reps int) Result {
	return RunSCCOpt(name, category, g, reps, core.Options{})
}

// RunSCCOpt is RunSCC with Options threaded through every implementation.
func RunSCCOpt(name, category string, g *graph.Graph, reps int, opt core.Options) Result {
	res := newResult(name, category, g)
	var met *core.Metrics
	res.Times["PASGAL"] = timed(reps, func() { _, _, met, _ = core.SCC(g, opt) })
	res.Metrics["PASGAL"] = met
	res.Times["GBBS"] = timed(reps, func() { _, _, met, _ = baseline.GBBSSCC(g, opt) })
	res.Metrics["GBBS"] = met
	res.Times["Multistep"] = timed(reps, func() { _, _, met, _ = baseline.MultistepSCC(g, opt) })
	res.Metrics["Multistep"] = met
	res.Times["Tarjan*"] = timed(reps, func() { seq.TarjanSCC(g) })
	return res
}

// BCCImpls names the implementations in the paper's BCC table.
var BCCImpls = []string{"PASGAL", "GBBS", "TV", "HopcroftTarjan*"}

// RunBCC measures every BCC implementation on g (symmetrized if directed,
// as the paper does).
func RunBCC(name, category string, g *graph.Graph, reps int) Result {
	return RunBCCOpt(name, category, g, reps, core.Options{})
}

// RunBCCOpt is RunBCC with Options threaded through every implementation.
func RunBCCOpt(name, category string, g *graph.Graph, reps int, opt core.Options) Result {
	sym := g.Symmetrized()
	res := newResult(name, category, sym)
	var met *core.Metrics
	res.Times["PASGAL"] = timed(reps, func() { _, met, _ = core.BCC(sym, opt) })
	res.Metrics["PASGAL"] = met
	res.Times["GBBS"] = timed(reps, func() { _, met, _ = baseline.GBBSBCC(sym, opt) })
	res.Metrics["GBBS"] = met
	var auxBytes int64
	res.Times["TV"] = timed(reps, func() { _, met, auxBytes, _ = baseline.TarjanVishkinBCC(sym, opt) })
	res.Metrics["TV"] = met
	res.Extra["TV aux"] = byteSize(auxBytes)
	res.Times["HopcroftTarjan*"] = timed(reps, func() { seq.HopcroftTarjanBCC(sym) })
	return res
}

// SSSPImpls names the SSSP implementations (no paper table exists; the
// paper's shape claim is PASGAL's stepping+VGC vs plain Δ-stepping,
// GBBS-style Bellman–Ford, and sequential Dijkstra).
var SSSPImpls = []string{"PASGAL-rho", "PASGAL-delta", "DeltaStep", "GBBS-BF", "Dijkstra*"}

// RunSSSP measures SSSP implementations on a weighted version of g.
func RunSSSP(name, category string, g *graph.Graph, reps int) Result {
	return RunSSSPOpt(name, category, g, reps, core.Options{})
}

// RunSSSPOpt is RunSSSP with Options threaded through every implementation.
func RunSSSPOpt(name, category string, g *graph.Graph, reps int, opt core.Options) Result {
	wg := gen.AddUniformWeights(g, 1, 1<<16, 40400)
	src := PickSource(wg)
	res := newResult(name, category, wg)
	var met *core.Metrics
	res.Times["PASGAL-rho"] = timed(reps, func() {
		_, met, _ = core.SSSP(wg, src, core.RhoStepping{}, opt)
	})
	res.Metrics["PASGAL-rho"] = met
	res.Times["PASGAL-delta"] = timed(reps, func() {
		_, met, _ = core.SSSP(wg, src, core.DeltaStepping{Delta: 1 << 15}, opt)
	})
	res.Metrics["PASGAL-delta"] = met
	res.Times["DeltaStep"] = timed(reps, func() {
		_, met, _ = baseline.DeltaSteppingSSSP(wg, src, 1<<15, opt)
	})
	res.Metrics["DeltaStep"] = met
	res.Times["GBBS-BF"] = timed(reps, func() {
		_, met, _ = baseline.GBBSBellmanFordSSSP(wg, src, opt)
	})
	res.Metrics["GBBS-BF"] = met
	res.Times["Dijkstra*"] = timed(reps, func() { seq.Dijkstra(wg, src) })
	return res
}

func newResult(name, category string, g *graph.Graph) Result {
	return Result{
		Graph:    name,
		Category: category,
		N:        g.N,
		M:        len(g.Edges),
		Times:    map[string]float64{},
		Metrics:  map[string]*core.Metrics{},
		Extra:    map[string]string{},
	}
}
