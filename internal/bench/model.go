package bench

import (
	"fmt"
	"time"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// The analytic scaling model projects parallel running time from measured
// machine-independent quantities:
//
//	T(P) ≈ (edgesVisited · tEdge) / P  +  rounds · tSync(P)
//
// where tEdge is calibrated from the sequential baseline on the same graph
// (its time divided by its edge inspections, m) and tSync(P) is the
// measured cost of one fork-join barrier at team size P. The first term is
// the work law, the second the synchronization bill — the quantity VGC
// exists to shrink. The model deliberately ignores memory effects and load
// imbalance; it is not a simulator, just the paper's own asymptotic
// argument with measured constants, and the honest way to discuss scaling
// *shape* on a host without many cores.

// MeasureSyncCost times an empty fork-join barrier at team size p.
func MeasureSyncCost(p int) time.Duration {
	old := parallel.SetWorkers(p)
	defer parallel.SetWorkers(old)
	// Warm up, then measure many barriers. Each ForRange below spawns p
	// goroutines over p chunks and joins them.
	dummy := make([]int64, p)
	barrier := func() {
		parallel.ForRange(p, 1, func(lo, hi int) { dummy[lo]++ })
	}
	for i := 0; i < 100; i++ {
		barrier()
	}
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		barrier()
	}
	return time.Since(start) / iters
}

// ProjectedSpeedup evaluates the model for a run that visited `edges`
// edges over `rounds` barriers, against a sequential time seqT that
// inspected seqEdges edges.
func ProjectedSpeedup(seqT float64, seqEdges int64, edges, rounds int64,
	tSync float64, p int) float64 {
	tEdge := seqT / float64(seqEdges)
	tp := float64(edges)*tEdge/float64(p) + float64(rounds)*tSync
	return seqT / tp
}

// Fig1Model prints projected SCC speedups at growing core counts for the
// Figure 1 graphs, from measured work/rounds and the calibrated constants.
func Fig1Model(c Config) {
	graphs := []string{"TW", "OK", "NA", "REC"}
	if len(c.Graphs) > 0 {
		graphs = c.Graphs
	}
	ps := []int{1, 4, 16, 96, 192}
	fmt.Fprintf(c.Out, "\n== Figure 1 (analytic projection): SCC speedup over Tarjan at P cores ==\n")
	fmt.Fprintf(c.Out, "model: T(P) = work·tEdge/P + rounds·tSync(P); constants measured on this host\n")
	tSync := make(map[int]float64)
	for _, p := range ps {
		tSync[p] = MeasureSyncCost(p).Seconds()
	}
	fmt.Fprintf(c.Out, "measured barrier cost: tSync(1)=%s tSync(%d)=%s\n",
		fmtTime(tSync[1]), ps[len(ps)-1], fmtTime(tSync[ps[len(ps)-1]]))
	header := []string{"Graph", "impl", "work", "rounds"}
	for _, p := range ps {
		header = append(header, fmt.Sprintf("@%d", p))
	}
	rows := [][]string{header}
	for _, name := range graphs {
		s := LookupSpec(name)
		if s == nil || !s.Directed {
			continue
		}
		g := c.build(*s)
		seqT := timed(c.Reps, func() { seq.TarjanSCC(g) })
		seqEdges := int64(len(g.Edges) + g.N)
		type impl struct {
			name string
			run  func() *core.Metrics
		}
		for _, im := range []impl{
			{"PASGAL", func() *core.Metrics { _, _, m, _ := core.SCC(g, core.Options{}); return m }},
			{"GBBS", func() *core.Metrics { _, _, m, _ := baseline.GBBSSCC(g, core.Options{}); return m }},
			{"Multistep", func() *core.Metrics { _, _, m, _ := baseline.MultistepSCC(g, core.Options{}); return m }},
		} {
			met := im.run()
			row := []string{name, im.name, fmtCount(int(met.EdgesVisited)),
				fmtCount(int(met.Rounds))}
			for _, p := range ps {
				sp := ProjectedSpeedup(seqT, seqEdges, met.EdgesVisited, met.Rounds,
					tSync[p], p)
				row = append(row, fmt.Sprintf("%.1fx", sp))
			}
			rows = append(rows, row)
		}
	}
	printAligned(c.Out, rows)
}
