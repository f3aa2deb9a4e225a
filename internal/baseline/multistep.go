package baseline

import (
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// multistepSeqCutoff is the live-set size below which Multistep hands the
// remainder to sequential Tarjan, as in the original implementation.
const multistepSeqCutoff = 256

// MultistepSCC is the SCC algorithm of Slota, Rajamanickam and Madduri
// (IPDPS'14): iterative trimming of size-1 SCCs, one forward/backward
// reachability sweep from a single high-degree pivot (level-synchronous
// BFS), then rounds of max-color propagation with per-color backward
// sweeps, finishing the tail sequentially with Tarjan's algorithm.
//
// Of opt, only the ctx, tracer, and metric options apply.
func MultistepSCC(g *graph.Graph, opt core.Options) ([]uint32, int, *core.Metrics, error) {
	if !g.Directed {
		panic("baseline: MultistepSCC requires a directed graph")
	}
	met := core.NewMetrics(opt, "multistep-scc")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	comp := make([]uint32, n)
	parallel.Fill(comp, graph.None)
	if n == 0 {
		return comp, 0, met, cl.Poll()
	}
	tr := g.Transpose()
	live := parallel.PackIndex(n, func(int) bool { return true })

	liveNeighbor := func(gg *graph.Graph, v uint32) bool {
		for _, w := range gg.Neighbors(v) {
			if w != v && comp[w] == graph.None {
				return true
			}
		}
		return false
	}

	// Step 1: trim to fixpoint (capped).
	for t := 0; t < 5 && len(live) > 0; t++ {
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		trimmed := parallel.Pack(live, func(i int) bool {
			v := live[i]
			return !liveNeighbor(g, v) || !liveNeighbor(tr, v)
		})
		if len(trimmed) == 0 {
			break
		}
		parallel.For(len(trimmed), 0, func(i int) { comp[trimmed[i]] = trimmed[i] })
		live = parallel.Pack(live, func(i int) bool { return comp[live[i]] == graph.None })
	}

	// Step 2: FW-BW from the max degree-product pivot (expected to hit the
	// giant SCC of a power-law graph).
	if len(live) > 0 {
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		met.AddPhase()
		best := parallel.MaxIndex(len(live), func(i int) int64 {
			v := live[i]
			return int64(g.Degree(v)+1) * int64(tr.Degree(v)+1)
		})
		pivot := live[best]
		fwd, err := markReach(g, comp, pivot, met, cl)
		if err != nil {
			return nil, 0, met, err
		}
		bwd, err := markReach(tr, comp, pivot, met, cl)
		if err != nil {
			return nil, 0, met, err
		}
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			if fwd[v] && bwd[v] {
				comp[v] = pivot
			}
		})
		live = parallel.Pack(live, func(i int) bool { return comp[live[i]] == graph.None })
	}

	// Step 3: coloring rounds.
	color := make([]atomic.Uint32, n)
	for len(live) > multistepSeqCutoff {
		// Phase boundary: canceled color propagation leaves the coloring
		// fixpoint unreached, which would settle wrong components.
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		met.AddPhase()
		parallel.For(len(live), 0, func(i int) { color[live[i]].Store(live[i]) })
		// Propagate the maximum color forward to a fixpoint.
		frontier := append([]uint32(nil), live...)
		for len(frontier) > 0 {
			if err := cl.Poll(); err != nil {
				return nil, 0, met, err
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
				cu := color[u].Load()
				at := offs[i]
				for _, w := range g.Neighbors(u) {
					outv[at] = graph.None
					if comp[w] == graph.None {
						for {
							old := color[w].Load()
							if cu <= old {
								break
							}
							if color[w].CompareAndSwap(old, cu) {
								outv[at] = w
								break
							}
						}
					}
					at++
				}
			})
			frontier = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
		}
		// Backward sweep from every color root within its color class.
		roots := parallel.Pack(live, func(i int) bool {
			return color[live[i]].Load() == live[i]
		})
		settled := make([]atomic.Uint32, n)
		parallel.For(len(roots), 0, func(i int) { settled[roots[i]].Store(1) })
		frontier = roots
		for len(frontier) > 0 {
			if err := cl.Poll(); err != nil {
				return nil, 0, met, err
			}
			met.Round(len(frontier))
			offs := make([]int64, len(frontier))
			parallel.For(len(frontier), 0, func(i int) {
				offs[i] = int64(tr.Degree(frontier[i]))
			})
			total := parallel.Scan(offs)
			met.AddEdges(total)
			outv := make([]uint32, total)
			parallel.ForCancel(cl.Token(), len(frontier), 1, func(i int) {
				u := frontier[i]
				cu := color[u].Load()
				at := offs[i]
				for _, w := range tr.Neighbors(u) {
					outv[at] = graph.None
					if comp[w] == graph.None && color[w].Load() == cu &&
						settled[w].Load() == 0 && settled[w].CompareAndSwap(0, 1) {
						outv[at] = w
					}
					at++
				}
			})
			frontier = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
		}
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			if settled[v].Load() == 1 {
				comp[v] = color[v].Load()
			}
		})
		live = parallel.Pack(live, func(i int) bool { return comp[live[i]] == graph.None })
	}

	// Step 4: sequential Tarjan on the induced remainder.
	if len(live) > 0 {
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		met.AddPhase()
		idx := make(map[uint32]uint32, len(live))
		for i, v := range live {
			idx[v] = uint32(i)
		}
		var edges []graph.Edge
		for i, v := range live {
			for _, w := range g.Neighbors(v) {
				if j, ok := idx[w]; ok {
					edges = append(edges, graph.Edge{U: uint32(i), V: j})
				}
			}
		}
		sg := graph.FromEdges(len(live), edges, true, graph.BuildOptions{})
		sub, subCount := seq.TarjanSCC(sg)
		// Canonical representative: minimum original id per sub-component.
		rep := make([]uint32, subCount)
		for i := range rep {
			rep[i] = graph.None
		}
		for i, v := range live {
			if v < rep[sub[i]] {
				rep[sub[i]] = v
			}
		}
		for i, v := range live {
			comp[v] = rep[sub[i]]
		}
	}

	// Final check before counting (see GBBSSCC).
	if err := cl.Poll(); err != nil {
		return nil, 0, met, err
	}
	count := parallel.Count(n, func(v int) bool { return comp[v] == uint32(v) })
	return comp, count, met, nil
}

// markReach marks all live vertices reachable from src with a level-
// synchronous BFS.
func markReach(g *graph.Graph, comp []uint32, src uint32, met *core.Metrics,
	cl *core.Canceler) ([]bool, error) {

	n := g.N
	mark := make([]atomic.Uint32, n)
	mark[src].Store(1)
	frontier := []uint32{src}
	for len(frontier) > 0 {
		if err := cl.Poll(); err != nil {
			return nil, err
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
			at := offs[i]
			for _, w := range g.Neighbors(u) {
				outv[at] = graph.None
				if comp[w] == graph.None && mark[w].Load() == 0 &&
					mark[w].CompareAndSwap(0, 1) {
					outv[at] = w
				}
				at++
			}
		})
		frontier = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
	}
	if err := cl.Poll(); err != nil {
		return nil, err
	}
	out := make([]bool, n)
	parallel.For(n, 0, func(i int) { out[i] = mark[i].Load() == 1 })
	return out, nil
}
