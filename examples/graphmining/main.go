// Graph mining with the peeling extensions: k-core decomposition, densest
// subgraph, and bridge detection on a social network — the "k-core and
// other peeling algorithms" extension the paper's conclusion proposes,
// built on the same VGC local search as the core algorithms.
//
//	go run ./examples/graphmining
package main

import (
	"fmt"
	"time"

	"pasgal"
)

func main() {
	// An undirected social network with a heavy-tailed degree profile.
	g := pasgal.GenerateRMAT(15, 12, false, 2026)
	fmt.Println(g)

	// k-core decomposition: peel away the sparse fringe to find the
	// engagement ladder.
	start := time.Now()
	core, degeneracy, met, _ := pasgal.KCore(g, pasgal.Options{})
	fmt.Printf("k-core in %s: degeneracy %d, %d peeling rounds\n",
		time.Since(start).Round(time.Millisecond), degeneracy, met.Rounds)
	levels := make([]int, degeneracy+1)
	for _, c := range core {
		levels[c]++
	}
	fmt.Printf("coreness spread: %d vertices at 0, %d in the top core (k=%d)\n",
		levels[0], levels[degeneracy], degeneracy)

	// Densest subgraph (Charikar 2-approximation via the peeling order):
	// the community with the highest internal edge density.
	verts, density, _, _ := pasgal.DensestSubgraph(g, pasgal.Options{})
	fmt.Printf("densest subgraph: %d vertices at density %.2f (graph-wide %.2f)\n",
		len(verts), density, float64(g.UndirectedM())/float64(g.N))
	sub, _ := pasgal.InducedSubgraph(g, verts)
	fmt.Printf("  induced: %v\n", sub)

	// Bridges: single points of failure in the network fabric.
	flags, nBridges, _, _ := pasgal.Bridges(g, pasgal.Options{})
	fmt.Printf("bridges: %d of %d edges\n", nBridges, g.UndirectedM())
	_ = flags

	// Cross-check the peel against the sequential Matula–Beck reference.
	seqCore, seqDeg := pasgal.SequentialKCore(g)
	if seqDeg != degeneracy {
		fmt.Printf("MISMATCH: sequential degeneracy %d\n", seqDeg)
		return
	}
	for v := range core {
		if core[v] != seqCore[v] {
			fmt.Printf("MISMATCH at vertex %d\n", v)
			return
		}
	}
	fmt.Println("verified against sequential Matula–Beck")
}
