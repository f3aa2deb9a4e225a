package baseline

import (
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// GBBSSCC is a GBBS-style SCC: the same multi-pivot reachability structure
// as PASGAL's (doubling pivot batches, forward/backward min-pivot labels,
// hash-refined subproblems) but with reachability performed by plain
// level-synchronous BFS over flat frontier arrays — one global round per
// hop, no VGC, no hash bags. On large-diameter graphs this pays Θ(D)
// synchronizations per search, which is precisely the behavior Figure 1
// contrasts PASGAL against.
//
// Of opt, only the ctx, tracer, and metric options apply.
func GBBSSCC(g *graph.Graph, opt core.Options) ([]uint32, int, *core.Metrics, error) {
	if !g.Directed {
		panic("baseline: GBBSSCC requires a directed graph")
	}
	met := core.NewMetrics(opt, "gbbs-scc")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	comp := make([]uint32, n)
	parallel.Fill(comp, graph.None)
	if n == 0 {
		return comp, 0, met, cl.Poll()
	}
	tr := g.Transpose()
	sub := make([]uint64, n)
	fwd := make([]atomic.Uint32, n)
	bwd := make([]atomic.Uint32, n)
	live := parallel.PackIndex(n, func(int) bool { return true })

	pivotTarget := 1
	seed := uint64(0x1234abcd5678ef90)
	for len(live) > 0 {
		// Phase boundary: a canceled reachability pass leaves labels
		// incomplete, which would settle wrong components.
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		met.AddPhase()
		k := pivotTarget
		if k > len(live) {
			k = len(live)
		}
		parallel.SortFunc(live, func(a, b uint32) bool {
			return sccHash(seed, a) < sccHash(seed, b)
		})
		pivots := live[:k]
		parallel.For(len(live), 0, func(i int) {
			fwd[live[i]].Store(graph.None)
			bwd[live[i]].Store(graph.None)
		})
		parallel.For(k, 0, func(i int) {
			fwd[pivots[i]].Store(uint32(i))
			bwd[pivots[i]].Store(uint32(i))
		})
		if err := bfsReach(g, comp, sub, fwd, pivots, met, cl); err != nil {
			return nil, 0, met, err
		}
		if err := bfsReach(tr, comp, sub, bwd, pivots, met, cl); err != nil {
			return nil, 0, met, err
		}
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			fl, bl := fwd[v].Load(), bwd[v].Load()
			if fl != graph.None && fl == bl {
				comp[v] = pivots[fl]
			}
		})
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			if comp[v] == graph.None {
				sub[v] = sccRefine(sub[v], fwd[v].Load(), bwd[v].Load())
			}
		})
		live = parallel.Pack(live, func(i int) bool { return comp[live[i]] == graph.None })
		pivotTarget *= 2
		seed = seed*0x2545f4914f6cdd1d + 7
	}
	// Final check before counting; the last phase may have been drained.
	if err := cl.Poll(); err != nil {
		return nil, 0, met, err
	}
	count := parallel.Count(n, func(v int) bool { return comp[v] == uint32(v) })
	return comp, count, met, nil
}

// bfsReach propagates minimum pivot indices level-synchronously.
func bfsReach(g *graph.Graph, comp []uint32, sub []uint64,
	label []atomic.Uint32, pivots []uint32, met *core.Metrics,
	cl *core.Canceler) error {

	frontier := append([]uint32(nil), pivots...)
	for len(frontier) > 0 {
		if err := cl.Poll(); err != nil {
			return err
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
			lu := label[u].Load()
			su := sub[u]
			at := offs[i]
			for _, w := range g.Neighbors(u) {
				outv[at] = graph.None
				if comp[w] == graph.None && sub[w] == su {
					for {
						old := label[w].Load()
						if lu >= old {
							break
						}
						if label[w].CompareAndSwap(old, lu) {
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
	// The caller reads the labels right after this returns.
	return cl.Poll()
}

func sccHash(seed uint64, v uint32) uint64 {
	x := seed ^ (uint64(v)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ (x >> 29)
}

func sccRefine(old uint64, fl, bl uint32) uint64 {
	x := old ^ 0x9e3779b97f4a7c15
	x = (x + uint64(fl) + 1) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30) ^ uint64(bl)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
