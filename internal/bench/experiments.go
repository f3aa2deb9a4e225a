// Package bench reproduces the paper's evaluation over the workload
// registry (gen.Registry: 22 scaled synthetic analogues of the paper's
// graphs; see DESIGN.md §3): it runs every implementation of every problem
// and prints Table 1's graph statistics, the BFS/SCC/BCC running-time
// tables (paper Tables 2–4), Figure 1's scalability sweep, Figure 2's
// speedups, and the design-choice ablations.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
	"pasgal/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	Scale  float64 // workload size multiplier (1.0 = default)
	Reps   int     // timing repetitions (median reported)
	Out    io.Writer
	Graphs []string // subset of workload names; empty = all

	// Tracer, when non-nil, is threaded through every timed algorithm run
	// (PASGAL and baselines) of the table experiments.
	Tracer *trace.Tracer

	// Ctx, when non-nil, is threaded through every timed algorithm run so a
	// deadline or SIGINT aborts the sweep instead of hanging the process.
	// Canceled runs report whatever timing they got; timed() keeps going, so
	// the caller should check Ctx between experiments.
	Ctx context.Context
}

// options returns the core.Options the tables thread into each run.
func (c Config) options() core.Options { return core.Options{Ctx: c.Ctx, Tracer: c.Tracer} }

func (c Config) registry() []gen.Spec {
	specs := gen.Registry()
	if len(c.Graphs) == 0 {
		return specs
	}
	var out []gen.Spec
	for _, name := range c.Graphs {
		if s := gen.LookupSpec(name); s != nil {
			out = append(out, *s)
		}
	}
	return out
}

func (c Config) build(s gen.Spec) *graph.Graph {
	start := time.Now()
	g := s.Build(c.Scale)
	fmt.Fprintf(c.Out, "  built %-5s (%s analog): n=%s m=%s in %s\n",
		s.Name, s.Paper, fmtCount(g.N), fmtCount(len(g.Edges)),
		time.Since(start).Round(time.Millisecond))
	return g
}

// Tab1 prints the graph-statistics table (paper Table 1 / appendix
// Table 5): n, m', m, D', D per workload, with D as sampled lower bounds.
func Tab1(c Config) {
	fmt.Fprintf(c.Out, "\n== Table 1: workload statistics (sampled diameter lower bounds) ==\n")
	rows := [][]string{{"Cat", "Graph", "Analog of", "n", "m'", "m", "D'", "D"}}
	for _, s := range c.registry() {
		g := s.Build(c.Scale)
		st := graph.ComputeStats(g, 3, 12345)
		dirM, dirD := "N/A", "N/A"
		if g.Directed {
			dirM = fmtCount(st.MDirected)
			dirD = fmt.Sprintf("%d", st.DiamLBDir)
		}
		rows = append(rows, []string{
			s.Category, s.Name, s.Paper, fmtCount(st.N), dirM,
			fmtCount(st.MSymmetric), dirD, fmt.Sprintf("%d", st.DiamLB),
		})
	}
	printAligned(c.Out, rows)
}

// TableBFS regenerates the BFS running-time table (paper appendix Table 4)
// and its Figure 2 speedup panel.
func TableBFS(c Config) []Result {
	var results []Result
	for _, s := range c.registry() {
		g := c.build(s)
		results = append(results, RunBFS(s.Name, s.Category, g, c.Reps, c.options()))
	}
	SortResults(results)
	PrintTimeTable(c.Out, "BFS running times", BFSImpls, results)
	PrintSpeedupTable(c.Out, "BFS", BFSImpls, results)
	return results
}

// TableSCC regenerates the SCC running-time table (paper appendix Table 3)
// and its Figure 2 speedup panel. Undirected workloads are skipped, as in
// the paper.
func TableSCC(c Config) []Result {
	var results []Result
	for _, s := range c.registry() {
		if !s.Directed {
			fmt.Fprintf(c.Out, "  %-5s: undirected graph (SCC n/a)\n", s.Name)
			continue
		}
		g := c.build(s)
		results = append(results, RunSCC(s.Name, s.Category, g, c.Reps, c.options()))
	}
	SortResults(results)
	PrintTimeTable(c.Out, "SCC running times", SCCImpls, results)
	PrintSpeedupTable(c.Out, "SCC", SCCImpls, results)
	return results
}

// TableBCC regenerates the BCC running-time table (paper appendix Table 2)
// and its Figure 2 speedup panel. Directed graphs are symmetrized, as in
// the paper.
func TableBCC(c Config) []Result {
	var results []Result
	for _, s := range c.registry() {
		g := c.build(s)
		results = append(results, RunBCC(s.Name, s.Category, g, c.Reps, c.options()))
	}
	SortResults(results)
	PrintTimeTable(c.Out, "BCC running times", BCCImpls, results)
	PrintSpeedupTable(c.Out, "BCC", BCCImpls, results)
	return results
}

// TableSSSP measures the SSSP implementations (the paper shows no SSSP
// table; this documents the §2.2 shape claim).
func TableSSSP(c Config) []Result {
	var results []Result
	for _, s := range c.registry() {
		g := c.build(s)
		results = append(results, RunSSSP(s.Name, s.Category, g, c.Reps, c.options()))
	}
	SortResults(results)
	PrintTimeTable(c.Out, "SSSP running times", SSSPImpls, results)
	PrintSpeedupTable(c.Out, "SSSP", SSSPImpls, results)
	return results
}

// Fig1 reproduces Figure 1: SCC speedup over sequential Tarjan as the
// worker count grows, on two low-diameter graphs (OK, TW analogues) and two
// large-diameter graphs (NA, REC analogues).
func Fig1(c Config) {
	graphs := []string{"TW", "OK", "NA", "REC"}
	if len(c.Graphs) > 0 {
		graphs = c.Graphs
	}
	maxP := runtime.GOMAXPROCS(0)
	var workerCounts []int
	for p := 1; p < maxP; p *= 2 {
		workerCounts = append(workerCounts, p)
	}
	workerCounts = append(workerCounts, maxP)
	fmt.Fprintf(c.Out, "\n== Figure 1: SCC speedup vs #workers (over sequential Tarjan) ==\n")
	if maxP == 1 {
		fmt.Fprintf(c.Out, "(host has 1 CPU: parallel speedups cannot exceed 1; the\n"+
			" machine-independent signal is the Rounds column — see EXPERIMENTS.md)\n")
	}
	rows := [][]string{append([]string{"Graph", "Tarjan*"},
		func() []string {
			var hs []string
			for _, p := range workerCounts {
				hs = append(hs, fmt.Sprintf("PASGAL@%d", p), fmt.Sprintf("GBBS@%d", p),
					fmt.Sprintf("MS@%d", p))
			}
			return hs
		}()...)}
	for _, name := range graphs {
		s := gen.LookupSpec(name)
		if s == nil || !s.Directed {
			continue
		}
		g := c.build(*s)
		seqT := timed(c.Reps, func() { seq.TarjanSCC(g) })
		row := []string{name, fmtTime(seqT)}
		for _, p := range workerCounts {
			old := parallel.SetWorkers(p)
			tp := timed(c.Reps, func() { core.SCC(g, core.Options{}) })
			tg := timed(c.Reps, func() { baseline.GBBSSCC(g, core.Options{}) })
			tm := timed(c.Reps, func() { baseline.MultistepSCC(g, core.Options{}) })
			parallel.SetWorkers(old)
			row = append(row,
				fmt.Sprintf("%.2fx", seqT/tp),
				fmt.Sprintf("%.2fx", seqT/tg),
				fmt.Sprintf("%.2fx", seqT/tm))
		}
		rows = append(rows, row)
	}
	printAligned(c.Out, rows)
}

// AblationTau sweeps the VGC budget τ on a large-diameter and a
// low-diameter workload: the design-choice study behind §2.1's claim that
// τ trades redundant work for fewer synchronizations.
func AblationTau(c Config) {
	fmt.Fprintf(c.Out, "\n== Ablation: VGC budget τ (BFS) ==\n")
	taus := []int{1, 8, 32, 128, 512, 2048, 8192}
	rows := [][]string{{"Graph", "tau", "time", "rounds", "edges visited", "max frontier"}}
	for _, name := range []string{"REC", "NA", "TW"} {
		g := c.build(*gen.LookupSpec(name))
		src := gen.PickSource(g)
		for _, tau := range taus {
			var met *core.Metrics
			t := timed(c.Reps, func() {
				_, met, _ = core.BFS(g, src, core.Options{Tau: tau, DisableDirectionOpt: true})
			})
			rows = append(rows, []string{name, fmt.Sprintf("%d", tau), fmtTime(t),
				fmtCount(int(met.Rounds)), fmtCount(int(met.EdgesVisited)),
				fmtCount(int(met.MaxFrontier))})
		}
	}
	printAligned(c.Out, rows)
}

// AblationTauSCC sweeps the VGC budget τ for SCC's reachability searches
// on a large-diameter workload.
func AblationTauSCC(c Config) {
	fmt.Fprintf(c.Out, "\n== Ablation: VGC budget τ (SCC reachability) ==\n")
	rows := [][]string{{"Graph", "tau", "time", "rounds", "edges visited"}}
	for _, name := range []string{"REC", "NA"} {
		g := c.build(*gen.LookupSpec(name))
		for _, tau := range []int{1, 32, 512, 4096} {
			var met *core.Metrics
			t := timed(c.Reps, func() {
				_, _, met, _ = core.SCC(g, core.Options{Tau: tau})
			})
			rows = append(rows, []string{name, fmt.Sprintf("%d", tau), fmtTime(t),
				fmtCount(int(met.Rounds)), fmtCount(int(met.EdgesVisited))})
		}
	}
	printAligned(c.Out, rows)
}

// AblationDirOpt compares BFS with and without direction optimization on
// low-diameter social workloads.
func AblationDirOpt(c Config) {
	fmt.Fprintf(c.Out, "\n== Ablation: direction optimization (BFS) ==\n")
	rows := [][]string{{"Graph", "dir-opt", "time", "rounds", "bottom-up", "edges visited"}}
	for _, name := range []string{"TW", "OK", "LJ", "REC"} {
		g := c.build(*gen.LookupSpec(name))
		src := gen.PickSource(g)
		for _, off := range []bool{false, true} {
			label := "on"
			if off {
				label = "off"
			}
			var met *core.Metrics
			t := timed(c.Reps, func() {
				_, met, _ = core.BFS(g, src, core.Options{DisableDirectionOpt: off})
			})
			rows = append(rows, []string{name, label, fmtTime(t), fmtCount(int(met.Rounds)),
				fmtCount(int(met.BottomUp)), fmtCount(int(met.EdgesVisited))})
		}
	}
	printAligned(c.Out, rows)
}

// AblationSSSPPolicy sweeps the stepping policies (ρ-stepping vs
// Δ-stepping vs Bellman–Ford) across diameter classes.
func AblationSSSPPolicy(c Config) {
	fmt.Fprintf(c.Out, "\n== Ablation: SSSP stepping policies ==\n")
	rows := [][]string{{"Graph", "policy", "time", "rounds", "phases", "edges visited"}}
	policies := []core.StepPolicy{
		core.RhoStepping{Rho: 1 << 10}, core.RhoStepping{Rho: 1 << 16},
		core.DeltaStepping{Delta: 1 << 12}, core.DeltaStepping{Delta: 1 << 17},
		core.BellmanFordPolicy{},
	}
	labels := []string{"rho=1K", "rho=64K", "delta=4K", "delta=128K", "bellman-ford"}
	for _, name := range []string{"NA", "TW"} {
		wg := gen.AddUniformWeights(gen.LookupSpec(name).Build(c.Scale), 1, 1<<16, 40400)
		src := gen.PickSource(wg)
		for i, pol := range policies {
			var met *core.Metrics
			t := timed(c.Reps, func() { _, met, _ = core.SSSP(wg, src, pol, core.Options{}) })
			rows = append(rows, []string{name, labels[i], fmtTime(t),
				fmtCount(int(met.Rounds)), fmtCount(int(met.Phases)),
				fmtCount(int(met.EdgesVisited))})
		}
	}
	printAligned(c.Out, rows)
}

// FrontierGrowth prints the frontier-size series of the first rounds of
// BFS with and without VGC on a large-diameter graph — direct evidence for
// §2.1's claim that VGC "quickly accumulates a large frontier size ...
// and thus yields sufficient parallel tasks throughout the algorithm".
func FrontierGrowth(c Config) {
	fmt.Fprintf(c.Out, "\n== Frontier growth: first 12 rounds of BFS (REC analog) ==\n")
	g := c.build(*gen.LookupSpec("REC"))
	src := gen.PickSource(g)
	rows := [][]string{{"config", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8",
		"r9", "r10", "r11", "r12", "total rounds"}}
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"tau=1 (no VGC)", core.Options{Tau: 1, DisableDirectionOpt: true, RecordFrontiers: true}},
		{"tau=512 (VGC)", core.Options{Tau: 512, DisableDirectionOpt: true, RecordFrontiers: true}},
	} {
		_, met, _ := core.BFS(g, src, cfg.opt)
		row := []string{cfg.name}
		for r := 0; r < 12; r++ {
			if r < len(met.FrontierSizes) {
				row = append(row, fmt.Sprintf("%d", met.FrontierSizes[r]))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, fmt.Sprintf("%d", met.Rounds))
		rows = append(rows, row)
	}
	printAligned(c.Out, rows)
}
