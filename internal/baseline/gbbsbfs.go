// Package baseline implements the competing systems the paper measures
// PASGAL against, re-created in Go over the same substrates: GBBS-style and
// GAPBS-style direction-optimizing BFS, a GBBS-style BFS-reachability SCC,
// the Multistep SCC of Slota et al., Tarjan–Vishkin biconnectivity with its
// O(m) auxiliary graph, a GBBS-style BFS-spanning-tree biconnectivity, and
// classic bucketed Δ-stepping SSSP. All of them are *level-synchronous*:
// every hop of every traversal is a global round — exactly the behavior
// whose cost on large-diameter graphs the paper quantifies.
package baseline

import (
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// GBBSBFS is a GBBS-style edge-map BFS: a sparse frontier mapped top-down
// with CAS visits and a scan-allocated output, switching to a bottom-up
// sweep when the frontier covers enough of the edge set (direction
// optimization). One global synchronization per hop.
//
// Of opt, only the ctx, tracer, and metric options apply; the algorithmic
// knobs are PASGAL's, not GBBS's.
func GBBSBFS(g *graph.Graph, src uint32, opt core.Options) ([]uint32, *core.Metrics, error) {
	met := core.NewMetrics(opt, "gbbs-bfs")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	dist := make([]atomic.Uint32, n)
	parallel.For(n, 0, func(i int) { dist[i].Store(graph.InfDist) })
	out := make([]uint32, n)
	if n == 0 {
		return out, met, cl.Poll()
	}
	in := g.Transpose()
	m := int64(len(g.Edges))

	dist[src].Store(0)
	frontier := []uint32{src}
	for round := uint32(0); len(frontier) > 0; round++ {
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		met.Round(len(frontier))
		outEdges := parallel.Sum(len(frontier), func(i int) int64 {
			return int64(g.Degree(frontier[i]))
		})
		if outEdges+int64(len(frontier)) > m/20 {
			// Bottom-up (dense) round: mark pass, then a pure pack (the
			// pack predicate must be side-effect free because it is
			// evaluated twice).
			met.AddBottomUp()
			var visited int64
			parallel.ForRangeCancel(cl.Token(), n, 0, func(lo, hi int) {
				var local int64
				for vi := lo; vi < hi; vi++ {
					v := uint32(vi)
					if dist[v].Load() != graph.InfDist {
						continue
					}
					for _, u := range in.Neighbors(v) {
						local++
						if dist[u].Load() == round {
							dist[v].Store(round + 1)
							break
						}
					}
				}
				atomic.AddInt64(&visited, local)
			})
			met.AddEdges(visited)
			frontier = parallel.PackIndex(n, func(vi int) bool {
				return dist[vi].Load() == round+1
			})
			continue
		}
		// Top-down (sparse) round: scan-allocated neighbor output, CAS
		// winners only.
		offs := make([]int64, len(frontier))
		parallel.For(len(frontier), 0, func(i int) {
			offs[i] = int64(g.Degree(frontier[i]))
		})
		total := parallel.Scan(offs)
		met.AddEdges(total)
		outv := make([]uint32, total)
		parallel.ForCancel(cl.Token(), len(frontier), 1, func(i int) {
			u := frontier[i]
			at := offs[i]
			for _, w := range g.Neighbors(u) {
				if dist[w].Load() == graph.InfDist &&
					dist[w].CompareAndSwap(graph.InfDist, round+1) {
					outv[at] = w
				} else {
					outv[at] = graph.None
				}
				at++
			}
		})
		frontier = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
	}
	// Final check before materializing: a canceled round's drained chunks
	// leave outv holding stale zero values that pack into a bogus frontier.
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}
