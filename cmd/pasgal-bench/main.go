// pasgal-bench regenerates the paper's evaluation artifacts: the graph
// statistics table (tab1), the BFS/SCC/BCC running-time tables with
// geometric means and Figure 2 speedup panels (bfs, scc, bcc), the SSSP
// comparison (sssp), Figure 1's SCC scalability sweep (fig1) and its
// analytic projection (fig1-model), the substrate studies (frontier,
// mem), and the design-choice ablations (abl-tau, abl-tau-scc, abl-dir,
// abl-sssp). Everything else this repository measures — batched
// queries, serving, compression, updates, graph building — is a cell of
// `bash benchmark/run.sh` or a `go test -bench` benchmark.
//
// Usage:
//
//	pasgal-bench -exp all -scale 1.0 -reps 3
//	pasgal-bench -exp scc -graphs TW,OK,NA,REC
//	pasgal-bench -exp fig1 -workers 8
//	pasgal-bench -exp bfs -trace /tmp/trace          # tracing sinks
//	pasgal-bench -exp bfs -cpuprofile cpu.pprof      # pprof hooks
//
// With -trace DIR, every algorithm run (PASGAL and baselines) plus the
// parallel runtime feeds one trace.Tracer, and three sinks are written into
// DIR: rounds.log (human-readable), events.jsonl (event stream), and
// chrome_trace.json (load in chrome://tracing or https://ui.perfetto.dev).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"pasgal/internal/bench"
	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: tab1|bfs|scc|bcc|sssp|fig1|fig1-model|fig2|frontier|mem|abl-tau|abl-tau-scc|abl-dir|abl-sssp|all")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	reps := flag.Int("reps", 3, "timing repetitions (median reported)")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	graphs := flag.String("graphs", "", "comma-separated workload subset (default: all 22)")
	jsonOut := flag.String("json", "", "also write table results to this JSON file")
	svgDir := flag.String("svg", "", "also render Figure 2-style speedup charts into this directory")
	traceDir := flag.String("trace", "", "write trace sinks (rounds.log, events.jsonl, chrome_trace.json) into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	timeout := flag.Duration("timeout", 0, "abort the whole sweep after this long (0 = no limit)")
	flag.Parse()

	// Ctrl-C (or -timeout) cancels in-flight algorithm runs via Options.Ctx
	// and stops the sweep at the next experiment boundary, so partial JSON /
	// trace sinks still get written below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	var tracer *trace.Tracer
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: trace: %v\n", err)
			os.Exit(1)
		}
		tracer = trace.New()
		parallel.SetTracer(tracer)
		defer parallel.SetTracer(nil)
	}

	cfg := bench.Config{Scale: *scale, Reps: *reps, Out: os.Stdout, Tracer: tracer, Ctx: ctx}
	if *graphs != "" {
		cfg.Graphs = strings.Split(*graphs, ",")
	}
	fmt.Printf("pasgal-bench: scale=%.2f reps=%d workers=%d GOMAXPROCS=%d\n",
		*scale, *reps, parallel.Workers(), runtime.GOMAXPROCS(0))

	var records []bench.Record
	implsOf := map[string][]string{
		"bfs": bench.BFSImpls, "scc": bench.SCCImpls,
		"bcc": bench.BCCImpls, "sssp": bench.SSSPImpls,
	}
	collect := func(name string, results []bench.Result) {
		if *jsonOut != "" {
			records = append(records, bench.Record{
				Experiment: name, Scale: *scale, Reps: *reps,
				Workers: parallel.Workers(), Results: results,
			})
		}
		if *svgDir != "" {
			path := fmt.Sprintf("%s/fig2-%s.svg", *svgDir, name)
			title := fmt.Sprintf("Figure 2 (%s): speedup over sequential", strings.ToUpper(name))
			if err := bench.WriteSpeedupSVG(path, title, implsOf[name], results); err != nil {
				fmt.Fprintf(os.Stderr, "pasgal-bench: svg: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	run := func(name string) {
		switch name {
		case "tab1":
			bench.Tab1(cfg)
		case "bfs":
			collect(name, bench.TableBFS(cfg))
		case "scc":
			collect(name, bench.TableSCC(cfg))
		case "bcc":
			collect(name, bench.TableBCC(cfg))
		case "sssp":
			collect(name, bench.TableSSSP(cfg))
		case "fig1":
			bench.Fig1(cfg)
		case "fig1-model":
			bench.Fig1Model(cfg)
		case "fig2":
			// Figure 2 is the speedup view of the three tables.
			collect("scc", bench.TableSCC(cfg))
			collect("bcc", bench.TableBCC(cfg))
			collect("bfs", bench.TableBFS(cfg))
		case "abl-tau":
			bench.AblationTau(cfg)
		case "abl-tau-scc":
			bench.AblationTauSCC(cfg)
		case "abl-dir":
			bench.AblationDirOpt(cfg)
		case "abl-sssp":
			bench.AblationSSSPPolicy(cfg)
		case "frontier":
			bench.FrontierGrowth(cfg)
		case "mem":
			bench.Memory(cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	interrupted := false
	if *exp == "all" {
		for _, name := range []string{"tab1", "bfs", "scc", "bcc", "sssp",
			"fig1", "fig1-model", "frontier", "mem",
			"abl-tau", "abl-tau-scc", "abl-dir", "abl-sssp"} {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			run(name)
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			run(name)
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "pasgal-bench: sweep stopped early: %v\n", context.Cause(ctx))
	}
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, records); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment records to %s\n", len(records), *jsonOut)
	}
	if tracer != nil {
		if err := writeTraceSinks(*traceDir, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: trace: %v\n", err)
			os.Exit(1)
		}
		printSchedSummary(tracer)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-bench: memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// printSchedSummary prints the work-stealing scheduler's counters for the
// whole run: how many loops launched (vs. ran inline), how many helper
// slots were published, how many were actually stolen, and how often the
// pool parked/woke. The steals/forks ratio is the quick read on whether
// the pool helped: ~0 means the callers did all the work (tiny launches),
// while a high ratio means the load balancing was active.
func printSchedSummary(tr *trace.Tracer) {
	loops := tr.CounterValue(trace.CtrLoops)
	inline := tr.CounterValue(trace.CtrInlineLoops)
	forks := tr.CounterValue(trace.CtrForks)
	steals := tr.CounterValue(trace.CtrSteals)
	parks := tr.CounterValue(trace.CtrParks)
	wakes := tr.CounterValue(trace.CtrWakes)
	fmt.Printf("scheduler: %d launches (%d inline), %d forks published, %d stolen",
		loops, inline, forks, steals)
	if forks > 0 {
		fmt.Printf(" (%.1f%%)", 100*float64(steals)/float64(forks))
	}
	fmt.Printf(", %d parks, %d wakes\n", parks, wakes)
}

// writeTraceSinks renders the recording in all three formats.
func writeTraceSinks(dir string, tr *trace.Tracer) error {
	sinks := []struct {
		name  string
		write func(*os.File) error
	}{
		{"rounds.log", func(f *os.File) error { return tr.WriteRoundLog(f) }},
		{"events.jsonl", func(f *os.File) error { return tr.WriteJSONL(f) }},
		{"chrome_trace.json", func(f *os.File) error { return tr.WriteChromeTrace(f) }},
	}
	for _, s := range sinks {
		path := filepath.Join(dir, s.name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
