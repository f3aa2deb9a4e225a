package core

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/hashbag"
	"pasgal/internal/parallel"
)

// SCC computes strongly connected components with PASGAL's VGC SCC
// algorithm (Wang et al.): rounds of multi-pivot forward/backward
// reachability over hash-bag frontiers with VGC local searches.
//
// Each round samples a doubling batch of pivots among live vertices and
// propagates, separately forward and backward, the *minimum pivot index*
// that reaches each live vertex (an atomic write-min — reachability does
// not need BFS order, which is what lets VGC visit vertices in arbitrary
// multi-hop order). Vertices whose forward and backward labels name the
// same pivot form that pivot's SCC and settle; the rest are partitioned by
// their (forward, backward) label pair — two vertices of one SCC always
// share both labels, so an SCC is never split — and edges crossing
// partitions are ignored from then on. Size-1 SCCs are first peeled off by
// trimming passes.
//
// It returns a per-vertex component label (the id of a representative
// vertex) and the component count.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation SCC
// returns (nil, 0, partial Metrics, ErrCanceled/ErrDeadline).
func SCC(g *graph.Graph, opt Options) ([]uint32, int, *Metrics, error) {
	if !g.Directed {
		panic("core: SCC requires a directed graph")
	}
	opt = opt.Normalized()
	defer attachRuntimeTracer(opt)()
	met := NewMetrics(opt, "scc")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	comp := make([]uint32, n)
	parallel.Fill(comp, graph.None)
	if n == 0 {
		return comp, 0, met, cl.Poll()
	}
	tr := g.Transpose()

	sub := make([]uint64, n) // subproblem id; refined every round
	fwd := make([]atomic.Uint32, n)
	bwd := make([]atomic.Uint32, n)

	live := parallel.PackIndex(n, func(int) bool { return true })

	// Trimming: peel vertices with no live in- or out-neighbor (their SCC
	// is a singleton). Each pass exposes new trimmable vertices.
	for t := 0; t < opt.trimRounds() && len(live) > 0; t++ {
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		trimmed := parallel.Pack(live, func(i int) bool {
			v := live[i]
			return !hasLiveNeighbor(g, comp, sub, v) || !hasLiveNeighbor(tr, comp, sub, v)
		})
		if len(trimmed) == 0 {
			break
		}
		parallel.For(len(trimmed), 0, func(i int) { comp[trimmed[i]] = trimmed[i] })
		live = parallel.Pack(live, func(i int) bool { return comp[live[i]] == graph.None })
	}

	pivotTarget := 1
	seed := uint64(0x9e3779b97f4a7c15)
	for len(live) > 0 {
		// Phase boundary: a canceled reachability round leaves fwd/bwd
		// labels incomplete, which would settle vertices into wrong
		// components — stop before reading them.
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		met.AddPhase()
		// Deterministic pseudo-random pivot choice: order live vertices by
		// a per-round hash and take the first k.
		k := pivotTarget
		if k > len(live) {
			k = len(live)
		}
		parallel.SortFunc(live, func(a, b uint32) bool {
			return pivotHash(seed, a) < pivotHash(seed, b)
		})
		pivots := live[:k]

		parallel.For(len(live), 0, func(i int) {
			fwd[live[i]].Store(graph.None)
			bwd[live[i]].Store(graph.None)
		})
		// A pivot's own labels are its pivot index.
		parallel.For(k, 0, func(i int) {
			fwd[pivots[i]].Store(uint32(i))
			bwd[pivots[i]].Store(uint32(i))
		})

		if err := multiReach(g, comp, sub, fwd, pivots, opt, met, cl); err != nil {
			return nil, 0, met, err
		}
		if err := multiReach(tr, comp, sub, bwd, pivots, opt, met, cl); err != nil {
			return nil, 0, met, err
		}

		// Settle: fwd label == bwd label == some pivot index.
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			fl, bl := fwd[v].Load(), bwd[v].Load()
			if fl != graph.None && fl == bl {
				comp[v] = pivots[fl]
			}
		})
		// Refine subproblems of the survivors by their label pair.
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			if comp[v] == graph.None {
				sub[v] = refineHash(sub[v], fwd[v].Load(), bwd[v].Load())
			}
		})
		live = parallel.Pack(live, func(i int) bool { return comp[live[i]] == graph.None })
		pivotTarget *= 2
		seed = seed*0x2545f4914f6cdd1d + 1
	}

	// Final check before counting; see BFS.
	if err := cl.Poll(); err != nil {
		return nil, 0, met, err
	}
	count := parallel.Count(n, func(v int) bool { return comp[v] == uint32(v) })
	return comp, count, met, nil
}

func hasLiveNeighbor(g *graph.Graph, comp []uint32, sub []uint64, v uint32) bool {
	sv := sub[v]
	for _, w := range g.Neighbors(v) {
		if w != v && comp[w] == graph.None && sub[w] == sv {
			return true
		}
	}
	return false
}

func pivotHash(seed uint64, v uint32) uint64 {
	x := seed ^ (uint64(v)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ (x >> 29)
}

func refineHash(old uint64, fl, bl uint32) uint64 {
	x := old ^ 0x9e3779b97f4a7c15
	x = (x + uint64(fl) + 1) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30) ^ uint64(bl)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// multiReach propagates, within each subproblem, the minimum pivot index
// reaching every live vertex along g's edges. label must be pre-seeded
// with pivot indices at the pivots and graph.None elsewhere. Frontiers are
// hash bags; extraction processes vertices with VGC local searches.
func multiReach(g *graph.Graph, comp []uint32, sub []uint64,
	label []atomic.Uint32, pivots []uint32, opt Options, met *Metrics,
	cl *Canceler) error {

	tau := opt.tau()
	bag := hashbag.New(max(64, 2*len(pivots)))
	bag.SetTracer(opt.Tracer)
	for _, p := range pivots {
		bag.Insert(p)
	}
	for !bag.Empty() {
		if err := cl.Poll(); err != nil {
			return err
		}
		f := bag.Extract()
		met.Round(len(f))
		// FIFO local worklist: labels propagate breadth-first within a
		// task, minimizing claim-then-reclaim churn between pivots.
		parallel.ForRangeCancel(cl.Token(), len(f), 1, func(lo, hi int) {
			var qbuf [64]uint32
			queue := qbuf[:0]
			var edgeCount int64
			for i := lo; i < hi; i++ {
				queue = append(queue[:0], f[i])
				budget := tau
				for head := 0; head < len(queue); head++ {
					u := queue[head]
					lu := label[u].Load()
					su := sub[u]
					for _, w := range g.Neighbors(u) {
						edgeCount++
						if comp[w] != graph.None || sub[w] != su {
							continue // settled or different subproblem
						}
						for {
							old := label[w].Load()
							if lu >= old {
								break
							}
							if label[w].CompareAndSwap(old, lu) {
								if budget > 0 {
									queue = append(queue, w)
								} else {
									bag.Insert(w)
								}
								break
							}
						}
					}
					budget -= g.Degree(u)
					if budget <= 0 && head+1 < len(queue) {
						for _, w := range queue[head+1:] {
							bag.Insert(w)
						}
						queue = queue[:head+1]
					}
				}
			}
			met.AddEdges(edgeCount)
		})
	}
	// The caller reads the propagated labels right after this returns, so
	// a canceled final round must surface here, not at the next phase.
	return cl.Poll()
}
