// pasgal runs one library algorithm on a graph file or a registry
// workload and reports the result summary plus the run's metrics.
//
// Usage:
//
//	pasgal -algo bfs  -graph road.adj -src 0
//	pasgal -algo scc  -workload TW -scale 0.5
//	pasgal -algo bcc  -graph mesh.bin
//	pasgal -algo sssp -graph road.adj -policy rho -src 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pasgal"
	"pasgal/internal/gen"
)

func main() {
	algo := flag.String("algo", "bfs", "algorithm: bfs|batch|scc|bcc|sssp|kcore|ptp|cc|reach")
	path := flag.String("graph", "", "graph file (.adj, .bin, or edge list)")
	workload := flag.String("workload", "", "registry workload name (alternative to -graph)")
	scale := flag.Float64("scale", 1.0, "workload size multiplier (with -workload)")
	directed := flag.Bool("directed", true, "treat file input as directed")
	src := flag.Int("src", -1, "source vertex (-1 = max-degree vertex)")
	dst := flag.Int("dst", 0, "destination vertex (ptp)")
	batchN := flag.Int("batch", 64, "number of batched sources (batch)")
	tau := flag.Int("tau", 0, "VGC budget (0 = default)")
	policy := flag.String("policy", "rho", "SSSP policy: rho|delta|bf")
	weightMax := flag.Uint("wmax", 1<<16, "max random weight if the graph is unweighted (sssp)")
	verify := flag.Bool("verify", false, "cross-check the result against the sequential reference")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	flag.Parse()

	// Ctrl-C cancels the run gracefully: the algorithm drains, reports its
	// partial metrics, and the process exits cleanly instead of dying
	// mid-computation. A second SIGINT kills the process as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var g *pasgal.Graph
	switch {
	case *path != "":
		var err error
		g, err = pasgal.LoadGraph(*path, *directed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pasgal: %v\n", err)
			os.Exit(1)
		}
	case *workload != "":
		spec := gen.LookupSpec(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "pasgal: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		g = spec.Build(*scale)
	default:
		fmt.Fprintln(os.Stderr, "pasgal: need -graph or -workload")
		os.Exit(2)
	}
	fmt.Println(g)

	opt := pasgal.Options{Ctx: ctx, Tau: *tau}
	source := uint32(0)
	if *src >= 0 {
		source = uint32(*src)
	} else if g.N > 0 {
		source = gen.PickSource(g)
	}

	start := time.Now()
	switch *algo {
	case "bfs":
		dist, met, err := pasgal.BFS(g, source, opt)
		abortOn(err, met, time.Since(start))
		reached, maxd := 0, uint32(0)
		for _, d := range dist {
			if d != pasgal.InfDist {
				reached++
				if d > maxd {
					maxd = d
				}
			}
		}
		fmt.Printf("bfs from %d: reached %d vertices, eccentricity %d\n", source, reached, maxd)
		report(met, time.Since(start))
		if *verify {
			want := pasgal.SequentialBFS(g, source)
			for v := range want {
				if dist[v] != want[v] {
					fmt.Fprintf(os.Stderr, "VERIFY FAILED: dist[%d] = %d, want %d\n", v, dist[v], want[v])
					os.Exit(1)
				}
			}
			fmt.Println("verified against sequential queue BFS")
		}
	case "batch":
		if *batchN <= 0 {
			fmt.Fprintln(os.Stderr, "pasgal: -batch must be positive")
			os.Exit(2)
		}
		// Deterministic source spread: the requested source first, then a
		// fixed stride over the vertex space so lanes hit distinct regions.
		srcs := make([]uint32, *batchN)
		srcs[0] = source
		for i := 1; i < len(srcs); i++ {
			srcs[i] = uint32((uint64(source) + uint64(i)*2654435761) % uint64(g.N))
		}
		rows, met, err := pasgal.BatchedBFS(g, srcs, opt)
		abortOn(err, met, time.Since(start))
		elapsed := time.Since(start)
		reached := 0
		for _, row := range rows {
			for _, d := range row {
				if d != pasgal.InfDist {
					reached++
				}
			}
		}
		fmt.Printf("batch: %d BFS queries, %d (vertex, source) pairs reached, %.0f queries/sec\n",
			len(srcs), reached, float64(len(srcs))/elapsed.Seconds())
		report(met, elapsed)
		if *verify {
			for i, s := range srcs {
				want := pasgal.SequentialBFS(g, s)
				for v := range want {
					if rows[i][v] != want[v] {
						fmt.Fprintf(os.Stderr, "VERIFY FAILED: lane %d dist[%d] = %d, want %d\n",
							i, v, rows[i][v], want[v])
						os.Exit(1)
					}
				}
			}
			fmt.Println("verified against sequential queue BFS")
		}
	case "scc":
		_, count, met, err := pasgal.SCC(g, opt)
		abortOn(err, met, time.Since(start))
		fmt.Printf("scc: %d strongly connected components\n", count)
		report(met, time.Since(start))
		if *verify {
			if _, want := pasgal.SequentialSCC(g); want != count {
				fmt.Fprintf(os.Stderr, "VERIFY FAILED: %d components, Tarjan says %d\n", count, want)
				os.Exit(1)
			}
			fmt.Println("verified against sequential Tarjan")
		}
	case "bcc":
		sym := g.Symmetrized()
		res, met, err := pasgal.BCC(sym, opt)
		abortOn(err, met, time.Since(start))
		arts := 0
		for _, a := range res.IsArt {
			if a {
				arts++
			}
		}
		fmt.Printf("bcc: %d biconnected components, %d articulation points\n", res.NumBCC, arts)
		report(met, time.Since(start))
		if *verify {
			if want := pasgal.SequentialBCC(sym); want.NumBCC != res.NumBCC {
				fmt.Fprintf(os.Stderr, "VERIFY FAILED: %d components, Hopcroft–Tarjan says %d\n",
					res.NumBCC, want.NumBCC)
				os.Exit(1)
			}
			fmt.Println("verified against sequential Hopcroft–Tarjan")
		}
	case "sssp":
		wg := g
		if !wg.Weighted() {
			wg = pasgal.AddUniformWeights(g, 1, uint32(*weightMax), 1)
		}
		var pol pasgal.StepPolicy
		switch *policy {
		case "rho":
			pol = pasgal.RhoStepping{}
		case "delta":
			pol = pasgal.DeltaStepping{Delta: 1 << 15}
		case "bf":
			pol = pasgal.BellmanFordPolicy{}
		default:
			fmt.Fprintf(os.Stderr, "pasgal: unknown policy %q\n", *policy)
			os.Exit(2)
		}
		dist, met, err := pasgal.SSSP(wg, source, pol, opt)
		abortOn(err, met, time.Since(start))
		reached := 0
		var maxd uint64
		for _, d := range dist {
			if d != pasgal.InfWeight {
				reached++
				if d > maxd {
					maxd = d
				}
			}
		}
		fmt.Printf("sssp(%s) from %d: reached %d vertices, max distance %d\n",
			*policy, source, reached, maxd)
		report(met, time.Since(start))
		if *verify {
			want := pasgal.SequentialSSSP(wg, source)
			for v := range want {
				if dist[v] != want[v] {
					fmt.Fprintf(os.Stderr, "VERIFY FAILED: dist[%d] = %d, Dijkstra says %d\n",
						v, dist[v], want[v])
					os.Exit(1)
				}
			}
			fmt.Println("verified against sequential Dijkstra")
		}
	case "kcore":
		core, degeneracy, met, err := pasgal.KCore(g, opt)
		abortOn(err, met, time.Since(start))
		hist := map[uint32]int{}
		for _, c := range core {
			hist[c]++
		}
		fmt.Printf("kcore: degeneracy %d; %d vertices in the top core\n",
			degeneracy, hist[uint32(degeneracy)])
		report(met, time.Since(start))
		if *verify {
			seqCore, seqDeg := pasgal.SequentialKCore(g.Symmetrized())
			for v := range core {
				if core[v] != seqCore[v] || seqDeg != degeneracy {
					fmt.Fprintf(os.Stderr, "VERIFY FAILED at vertex %d\n", v)
					os.Exit(1)
				}
			}
			fmt.Println("verified against sequential Matula–Beck")
		}
	case "ptp":
		wg := g
		if !wg.Weighted() {
			wg = pasgal.AddUniformWeights(g, 1, uint32(*weightMax), 1)
		}
		d, met, err := pasgal.PointToPoint(wg, source, uint32(*dst), nil, opt)
		abortOn(err, met, time.Since(start))
		if d == pasgal.InfWeight {
			fmt.Printf("ptp: %d -> %d unreachable\n", source, *dst)
		} else {
			fmt.Printf("ptp: dist(%d, %d) = %d\n", source, *dst, d)
		}
		report(met, time.Since(start))
		if *verify {
			if want := pasgal.SequentialSSSP(wg, source)[*dst]; want != d {
				fmt.Fprintf(os.Stderr, "VERIFY FAILED: %d, Dijkstra says %d\n", d, want)
				os.Exit(1)
			}
			fmt.Println("verified against sequential Dijkstra")
		}
	case "cc":
		sym := g.Symmetrized()
		_, count := pasgal.ConnectedComponents(sym)
		fmt.Printf("cc: %d connected components\n", count)
	case "reach":
		reach, met, err := pasgal.Reachable(g, []uint32{source}, opt)
		abortOn(err, met, time.Since(start))
		n := 0
		for _, r := range reach {
			if r {
				n++
			}
		}
		fmt.Printf("reach: %d vertices reachable from %d\n", n, source)
		report(met, time.Since(start))
	default:
		fmt.Fprintf(os.Stderr, "pasgal: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
}

// abortOn reports a canceled/expired run (partial metrics included) and
// exits. Nil errors pass through.
func abortOn(err error, met *pasgal.Metrics, elapsed time.Duration) {
	if err == nil {
		return
	}
	// The typed sentinels already carry the "pasgal:" prefix.
	fmt.Fprintf(os.Stderr, "%v\n", err)
	report(met, elapsed)
	os.Exit(3)
}

func report(met *pasgal.Metrics, elapsed time.Duration) {
	fmt.Printf("time %s | rounds %d (bottom-up %d) | edges visited %d | max frontier %d | phases %d\n",
		elapsed.Round(time.Microsecond), met.Rounds, met.BottomUp,
		met.EdgesVisited, met.MaxFrontier, met.Phases)
}
