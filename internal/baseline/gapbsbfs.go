package baseline

import (
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// GAPBSBFS is a GAPBS-style direction-optimizing BFS (Beamer's alpha/beta
// hysteresis): top-down rounds until the frontier's edge mass exceeds
// 1/alpha of the unexplored edges, then bitmap-based bottom-up rounds until
// the frontier shrinks below n/beta.
//
// Of opt, only the ctx, tracer, and metric options apply; alpha/beta stay
// fixed at GAPBS's published constants.
func GAPBSBFS(g *graph.Graph, src uint32, opt core.Options) ([]uint32, *core.Metrics, error) {
	const alpha, beta = 15, 18
	met := core.NewMetrics(opt, "gapbs-bfs")
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

	dist[src].Store(0)
	frontier := []uint32{src}
	edgesRemaining := int64(len(g.Edges)) - int64(g.Degree(src))
	bottomUp := false
	frontierEdges := int64(g.Degree(src))

	for round := uint32(0); len(frontier) > 0; round++ {
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		met.Round(len(frontier))
		if !bottomUp && frontierEdges > edgesRemaining/alpha {
			bottomUp = true
		}
		if bottomUp && int64(len(frontier)) < int64(n)/beta {
			bottomUp = false
		}
		var next []uint32
		if bottomUp {
			met.AddBottomUp()
			// Bitmap of the current frontier for O(1) membership.
			bitmap := make([]atomic.Uint32, (n+31)/32)
			parallel.For(len(frontier), 0, func(i int) {
				v := frontier[i]
				w, b := v/32, uint32(1)<<(v%32)
				for {
					old := bitmap[w].Load()
					if old&b != 0 || bitmap[w].CompareAndSwap(old, old|b) {
						break
					}
				}
			})
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
						if bitmap[u/32].Load()&(1<<(u%32)) != 0 {
							dist[v].Store(round + 1)
							break
						}
					}
				}
				atomic.AddInt64(&visited, local)
			})
			// The pack predicate must be pure (it runs twice).
			next = parallel.PackIndex(n, func(vi int) bool {
				return dist[vi].Load() == round+1
			})
			met.AddEdges(visited)
		} else {
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
			next = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
		}
		frontierEdges = parallel.Sum(len(next), func(i int) int64 {
			return int64(g.Degree(next[i]))
		})
		edgesRemaining -= frontierEdges
		frontier = next
	}
	// Final check before materializing (see GBBSBFS).
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}
