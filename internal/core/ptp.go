package core

import (
	"sort"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/hashbag"
	"pasgal/internal/parallel"
)

// PointToPoint computes the shortest-path distance from src to dst on a
// weighted graph — one of the extensions the paper's conclusion names
// ("point-to-point shortest paths"). It is the stepping framework with
// goal-directed pruning: once a distance to dst is known, relaxations at
// or above it cannot lie on a better src→dst path (weights are
// non-negative) and are skipped, and the search stops as soon as every
// active vertex is at least as far as the best dst distance.
//
// Returns InfWeight if dst is unreachable from src.
//
// Every graph.Adjacency representation is accepted as long as it carries
// weights; like SSSP, the frontier processor ranges over graph.Scanner's
// arc lists. An endpoint at or past the vertex count is an error.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation it returns
// (InfWeight, partial Metrics, ErrCanceled/ErrDeadline).
func PointToPoint(a graph.Adjacency, src, dst uint32, policy StepPolicy, opt Options) (uint64, *Metrics, error) {
	if !a.HasWeights() {
		panic("core: PointToPoint requires a weighted graph")
	}
	if policy == nil {
		policy = RhoStepping{}
	}
	opt = opt.Normalized()
	defer attachRuntimeTracer(opt)()
	met := NewMetrics(opt, "ptp")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	if err := checkVertex("source", src, n); err != nil {
		return InfWeight, met, err
	}
	if err := checkVertex("destination", dst, n); err != nil {
		return InfWeight, met, err
	}
	if src == dst {
		return 0, met, cl.Poll()
	}
	dist := make([]atomic.Uint64, n)
	parallel.For(n, 0, func(i int) { dist[i].Store(InfWeight) })
	tau := opt.tau()

	near := hashbag.New(1024)
	far := hashbag.New(1024)
	near.SetTracer(opt.Tracer)
	far.SetTracer(opt.Tracer)
	dist[src].Store(0)
	near.Insert(src)
	theta := uint64(0)
	var best atomic.Uint64 // best known distance to dst
	best.Store(InfWeight)

	sc := graph.ScanOut(a)
	for {
		// Round/phase boundary check; see SSSP.
		if err := cl.Poll(); err != nil {
			return InfWeight, met, err
		}
		if near.Len() > 0 {
			// Chunk closure directly in the loop, for the reason given in
			// SSSP.
			f := near.Extract()
			met.Round(len(f))
			localBudget := tau
			if theta == InfWeight {
				localBudget = 0
			}
			parallel.ForRangeCancel(cl.Token(), len(f), 1, func(lo, hi int) {
				queue := make([]uint32, 0, 64)
				nbuf, wbuf := sc.Scratch(), sc.Scratch()
				var edgeCount int64
				for i := lo; i < hi; i++ {
					v := f[i]
					dv := dist[v].Load()
					if dv >= best.Load() {
						continue // cannot extend a better path to dst
					}
					if dv > theta {
						far.Insert(v)
						continue
					}
					queue = append(queue[:0], v)
					budget := localBudget
					for head := 0; head < len(queue); head++ {
						u := queue[head]
						du := dist[u].Load()
						if du >= best.Load() {
							continue
						}
						nbrs, wts := sc.Arcs(u, nbuf, wbuf)
						for j, w := range nbrs {
							edgeCount++
							nd := du + uint64(wts[j])
							if nd >= best.Load() {
								continue // pruned
							}
							for {
								old := dist[w].Load()
								if nd >= old {
									break
								}
								if dist[w].CompareAndSwap(old, nd) {
									if w == dst {
										// Track the new best dst distance.
										for {
											b := best.Load()
											if nd >= b || best.CompareAndSwap(b, nd) {
												break
											}
										}
									} else if nd <= theta && budget > 0 {
										queue = append(queue, w)
									} else if nd <= theta {
										near.Insert(w)
									} else {
										far.Insert(w)
									}
									break
								}
							}
						}
						budget -= len(nbrs)
						if budget <= 0 && head+1 < len(queue) {
							for _, w := range queue[head+1:] {
								near.Insert(w)
							}
							queue = queue[:head+1]
						}
					}
				}
				met.AddEdges(edgeCount)
			})
			continue
		}
		if far.Len() == 0 {
			break
		}
		met.AddPhase()
		f := far.Extract()
		sampleCap := 1024
		sample := make([]uint64, 0, sampleCap)
		stride := len(f)/sampleCap + 1
		for i := 0; i < len(f); i += stride {
			sample = append(sample, dist[f[i]].Load())
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		// Termination needs the true minimum over the active set (the
		// strided sample could miss a closer vertex).
		minActive := parallel.Min(len(f), func(i int) uint64 { return dist[f[i]].Load() })
		if minActive >= best.Load() {
			break // every active vertex is already at or past dst
		}
		theta = policy.Threshold(sample, len(f))
		if theta < sample[0] {
			theta = sample[0]
		}
		parallel.ForRangeCancel(cl.Token(), len(f), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := f[i]
				d := dist[v].Load()
				if d >= best.Load() {
					continue // pruned out of the search
				}
				if d <= theta {
					near.Insert(v)
				} else {
					far.Insert(v)
				}
			}
		})
	}
	// Final check: a canceled last round may have terminated the loop with
	// dst's distance still improvable.
	if err := cl.Poll(); err != nil {
		return InfWeight, met, err
	}
	return dist[dst].Load(), met, nil
}
