// pasgal-gen writes a registry workload (or a custom generator) to a graph
// file in any supported format.
//
// Usage:
//
//	pasgal-gen -workload REC -scale 1.0 -o rec.bin
//	pasgal-gen -rmat 18 -ef 16 -o social.adj
//	pasgal-gen -grid 1000x100 -o grid.el
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pasgal"
	"pasgal/internal/gen"
)

func main() {
	workload := flag.String("workload", "", "registry workload name (LJ, TW, NA, REC, ...)")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	rmat := flag.Int("rmat", 0, "generate RMAT with this scale (2^scale vertices)")
	ef := flag.Int("ef", 16, "RMAT edge factor")
	grid := flag.String("grid", "", "generate a grid, ROWSxCOLS")
	seed := flag.Uint64("seed", 1, "generator seed")
	directed := flag.Bool("directed", true, "generate a directed graph")
	weights := flag.Bool("weights", false, "attach uniform random weights in [1, 2^16]")
	out := flag.String("o", "", "output path (.adj, .bin, or edge list)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "pasgal-gen: need -o")
		os.Exit(2)
	}
	var g *pasgal.Graph
	switch {
	case *workload != "":
		spec := gen.LookupSpec(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "pasgal-gen: unknown workload %q (have: ", *workload)
			for i, s := range gen.Registry() {
				if i > 0 {
					fmt.Fprint(os.Stderr, ", ")
				}
				fmt.Fprint(os.Stderr, s.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			os.Exit(2)
		}
		g = spec.Build(*scale)
	case *rmat > 0:
		g = pasgal.GenerateRMAT(*rmat, *ef, *directed, *seed)
	case *grid != "":
		var rows, cols int
		if _, err := fmt.Sscanf(strings.ToLower(*grid), "%dx%d", &rows, &cols); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-gen: bad -grid %q: %v\n", *grid, err)
			os.Exit(2)
		}
		g = pasgal.GenerateGrid(rows, cols, *directed, *seed)
	default:
		fmt.Fprintln(os.Stderr, "pasgal-gen: need one of -workload, -rmat, -grid")
		os.Exit(2)
	}
	if *weights {
		g = pasgal.AddUniformWeights(g, 1, 1<<16, *seed)
	}
	if err := pasgal.SaveGraph(*out, g); err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %v\n", *out, g)
}
