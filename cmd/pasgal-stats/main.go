// pasgal-stats prints the paper's Table 1 statistics (n, m, m', sampled
// diameter lower bounds D, D') for a graph file. The same table for the
// whole workload registry is `pasgal-bench -exp tab1 -reps 1`.
//
// Usage:
//
//	pasgal-stats -graph road.adj -samples 5
package main

import (
	"flag"
	"fmt"
	"os"

	"pasgal"
)

func main() {
	path := flag.String("graph", "", "graph file to analyze")
	directed := flag.Bool("directed", true, "treat file input as directed")
	samples := flag.Int("samples", 3, "double-sweep BFS samples for the diameter bound")
	flag.Parse()

	if *path == "" {
		fmt.Fprintln(os.Stderr, "pasgal-stats: need -graph (registry workloads: pasgal-bench -exp tab1)")
		os.Exit(2)
	}
	g, err := pasgal.LoadGraph(*path, *directed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-stats: %v\n", err)
		os.Exit(1)
	}
	st := pasgal.ComputeStats(g, *samples, 12345)
	fmt.Println(g)
	fmt.Printf("n=%d m'=%d m=%d D'>=%d D>=%d maxdeg=%d avgdeg=%.2f\n",
		st.N, st.MDirected, st.MSymmetric, st.DiamLBDir, st.DiamLB,
		st.MaxDeg, st.AvgDeg)
}
