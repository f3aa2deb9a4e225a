package baseline

import (
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// GBBSBellmanFordSSSP is a GBBS-style SSSP: sparse-frontier parallel
// Bellman–Ford (edge-map with write-min, next frontier = improved
// vertices), one global round per relaxation wave. Work-inefficient
// relative to Δ-stepping on heavy-tailed weight ranges but simple and
// level-synchronous — the profile of GBBS's general-weight SSSP.
//
// Of opt, only the ctx, tracer, and metric options apply.
func GBBSBellmanFordSSSP(g *graph.Graph, src uint32, opt core.Options) ([]uint64, *core.Metrics, error) {
	if !g.Weighted() {
		panic("baseline: GBBSBellmanFordSSSP requires a weighted graph")
	}
	met := core.NewMetrics(opt, "gbbs-sssp")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	dist := make([]atomic.Uint64, n)
	parallel.For(n, 0, func(i int) { dist[i].Store(core.InfWeight) })
	out := make([]uint64, n)
	if n == 0 {
		return out, met, cl.Poll()
	}
	dist[src].Store(0)
	frontier := []uint32{src}
	inNext := make([]atomic.Uint32, n) // dedup claims for the next frontier
	for len(frontier) > 0 {
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		met.Round(len(frontier))
		offs := make([]int64, len(frontier))
		parallel.For(len(frontier), 0, func(i int) {
			offs[i] = int64(g.Degree(frontier[i]))
		})
		total := parallel.Scan(offs)
		met.AddEdges(total)
		outv := make([]uint32, total)
		parallel.ForCancel(cl.Token(), len(frontier), 1, func(i int) {
			u := frontier[i]
			du := dist[u].Load()
			wts := g.NeighborWeights(u)
			at := offs[i]
			for j, w := range g.Neighbors(u) {
				outv[at] = graph.None
				nd := du + uint64(wts[j])
				for {
					old := dist[w].Load()
					if nd >= old {
						break
					}
					if dist[w].CompareAndSwap(old, nd) {
						// First improver of w this round claims the
						// frontier slot; later improvers just lower dist.
						if inNext[w].CompareAndSwap(0, 1) {
							outv[at] = w
						}
						break
					}
				}
				at++
			}
		})
		frontier = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
		parallel.For(len(frontier), 0, func(i int) { inNext[frontier[i]].Store(0) })
	}
	// Final check before materializing (see GBBSBFS).
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}
