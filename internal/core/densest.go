package core

import (
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// Bridges returns, for an undirected graph, a flag per arc marking bridge
// edges (edges whose removal disconnects their component). A bridge is
// exactly a biconnected component of size one edge, so this is a direct
// corollary of FAST-BCC.
func Bridges(g *graph.Graph, opt Options) ([]bool, int, *Metrics, error) {
	res, met, err := BCC(g, opt)
	if err != nil {
		return nil, 0, met, err
	}
	// Count arcs per BCC label; label with exactly 2 arcs = bridge.
	counts := make([]int64, res.NumBCC)
	for _, l := range res.ArcLabel {
		if l != graph.None {
			counts[l]++
		}
	}
	out := make([]bool, len(g.Edges))
	parallel.ForRange(len(g.Edges), 0, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			if l := res.ArcLabel[e]; l != graph.None && counts[l] == 2 {
				out[e] = true
			}
		}
	})
	nBridges := 0
	for _, c := range counts {
		if c == 2 {
			nBridges++
		}
	}
	return out, nBridges, met, nil
}

// DensestSubgraph returns Charikar's greedy-peeling 2-approximation of the
// maximum-density subgraph (density = edges/vertices in the induced
// subgraph): peel vertices in k-core order and return the vertex set of
// the core level that maximizes density — here derived directly from the
// VGC k-core decomposition, exercising the "peeling algorithms" extension
// the paper's conclusion names.
//
// The returned density uses the undirected edge count. The approximation
// bound: density(returned) >= OPT/2 because the max-coreness core has
// min degree >= degeneracy >= OPT... the standard argument applies to the
// peeling *order*; using core levels retains the 2-approximation since the
// densest prefix of the peeling order is a union of core levels' prefixes
// — we evaluate every core level and pick the best, which includes the
// maximum-coreness core achieving >= OPT/2.
//
// A directed graph is measured, as KCore peels it, as its symmetric
// closure.
func DensestSubgraph(a graph.Adjacency, opt Options) ([]uint32, float64, *Metrics, error) {
	core, degeneracy, met, err := KCore(a, opt)
	if err != nil {
		return nil, 0, met, err
	}
	n := a.NumVertices()
	if n == 0 {
		return nil, 0, met, nil
	}
	// For each core level k, the k-core is {v : core[v] >= k}. Compute
	// vertex and edge counts per level with suffix sums.
	vcount := make([]int64, degeneracy+2)
	ecount := make([]int64, degeneracy+2)
	out, in := peelScanners(a)
	obuf, ibuf, mbuf := peelScratch(out, in)
	for v := uint32(0); v < uint32(n); v++ {
		vcount[core[v]]++
		var nbrs []uint32
		nbrs, mbuf = peelList(out, in, v, obuf, ibuf, mbuf)
		for _, w := range nbrs {
			if w > v {
				// The edge (v,w) survives in the k-core for k <= min of
				// the two corenesses.
				k := core[v]
				if core[w] < k {
					k = core[w]
				}
				ecount[k]++
			}
		}
	}
	// Suffix sums: level k totals = sum over >= k.
	for k := degeneracy - 1; k >= 0; k-- {
		vcount[k] += vcount[k+1]
		ecount[k] += ecount[k+1]
	}
	bestK, bestDensity := 0, -1.0
	for k := 0; k <= degeneracy; k++ {
		if vcount[k] == 0 {
			continue
		}
		d := float64(ecount[k]) / float64(vcount[k])
		if d > bestDensity {
			bestK, bestDensity = k, d
		}
	}
	verts := parallel.PackIndex(n, func(v int) bool { return core[v] >= uint32(bestK) })
	return verts, bestDensity, met, nil
}
