package core

import (
	"sort"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/hashbag"
	"pasgal/internal/parallel"
)

// InfWeight is the "unreachable" weighted distance (matches seq.InfWeight).
const InfWeight = ^uint64(0)

// StepPolicy chooses the next processing threshold in the stepping
// framework (Dong et al.): given a sample of the active tentative
// distances (sorted ascending) and the total number of active vertices, it
// returns θ — vertices with dist <= θ are processed this phase.
type StepPolicy interface {
	// Threshold picks θ >= sample[0]. sample is non-empty and sorted.
	Threshold(sample []uint64, active int) uint64
	// Name identifies the policy in benchmark output.
	Name() string
}

// DeltaStepping processes vertices in fixed-width distance bands, like
// Meyer & Sanders' Δ-stepping.
type DeltaStepping struct{ Delta uint64 }

// Threshold implements StepPolicy: the end of sample[0]'s Δ-band,
// (sample[0]/Δ + 1)·Δ, saturated to InfWeight. The saturation matters:
// for tentative distances within Δ of MaxUint64 the band-end product
// wraps in uint64 and would return θ < sample[0], stalling the phase
// loop's progress guarantee.
func (p DeltaStepping) Threshold(sample []uint64, active int) uint64 {
	d := p.Delta
	if d == 0 {
		d = 1
	}
	q := sample[0] / d
	if q >= InfWeight/d {
		// (q+1)*d would exceed (or wrap past) MaxUint64.
		return InfWeight
	}
	return (q + 1) * d
}

// Name implements StepPolicy.
func (DeltaStepping) Name() string { return "delta" }

// RhoStepping aims to process the ~Rho closest active vertices per phase —
// the paper's ρ-stepping, PASGAL's default SSSP configuration.
type RhoStepping struct{ Rho int }

// Threshold implements StepPolicy.
func (p RhoStepping) Threshold(sample []uint64, active int) uint64 {
	rho := p.Rho
	if rho <= 0 {
		rho = 1 << 14
	}
	if rho >= active {
		// Process everything currently active, but not vertices
		// discovered later this phase: an unbounded θ would degrade the
		// phase into asynchronous Bellman–Ford with unbounded re-work.
		return sample[len(sample)-1]
	}
	// Index of the ρ-th smallest active distance, estimated through the
	// sample.
	idx := len(sample) * rho / active
	if idx >= len(sample) {
		idx = len(sample) - 1
	}
	return sample[idx]
}

// Name implements StepPolicy.
func (RhoStepping) Name() string { return "rho" }

// BellmanFordPolicy processes every active vertex every phase.
type BellmanFordPolicy struct{}

// Threshold implements StepPolicy.
func (BellmanFordPolicy) Threshold([]uint64, int) uint64 { return InfWeight }

// Name implements StepPolicy.
func (BellmanFordPolicy) Name() string { return "bf" }

// SSSP computes single-source shortest paths on a weighted graph with the
// stepping-algorithm framework: a near/far pair of hash bags, a pluggable
// threshold policy, atomic write-min relaxations, and VGC local searches
// (a relaxation that lands under the current threshold keeps expanding
// in-task instead of round-tripping through the frontier).
//
// policy == nil selects ρ-stepping with its default ρ.
//
// Every graph.Adjacency representation is accepted as long as it carries
// weights: the frontier processor ranges over graph.Scanner's arc lists.
// A source at or past the vertex count is an error.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation SSSP
// returns (nil, partial Metrics, ErrCanceled/ErrDeadline).
func SSSP(a graph.Adjacency, src uint32, policy StepPolicy, opt Options) ([]uint64, *Metrics, error) {
	if !a.HasWeights() {
		panic("core: SSSP requires a weighted graph")
	}
	if policy == nil {
		policy = RhoStepping{}
	}
	opt = opt.Normalized()
	defer attachRuntimeTracer(opt)()
	met := NewMetrics(opt, "sssp")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	if err := checkVertex("source", src, n); err != nil {
		return nil, met, err
	}
	dist := make([]atomic.Uint64, n)
	parallel.For(n, 0, func(i int) { dist[i].Store(InfWeight) })
	out := make([]uint64, n)
	tau := opt.tau()

	near := hashbag.New(1024)
	far := hashbag.New(1024)
	near.SetTracer(opt.Tracer)
	far.SetTracer(opt.Tracer)
	dist[src].Store(0)
	near.Insert(src)
	theta := uint64(0) // process dist <= theta; first phase handles src only

	sc := graph.ScanOut(a)
	for {
		// Round/phase boundary: a canceled round drains chunks without
		// re-inserting deferred vertices, so the near/far emptiness test
		// below would read as convergence — stop first.
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		if near.Len() > 0 {
			// Process the near frontier — the only place the graph is
			// scanned. The chunk closure sits directly in this loop, not
			// in a processFrontier helper closure: go1.24 inlines such a
			// helper at its one call site and then compiles the closures
			// nested in it without inlining, which turned every atomic
			// Load/CAS below into a call (+22 % on the social graph).
			f := near.Extract()
			met.Round(len(f))
			// Multi-hop local expansion is only sound under a finite θ: it
			// bounds how wrong an eagerly-expanded tentative distance can be.
			// With θ = ∞ (Bellman–Ford policy) every improvement round-trips
			// through the frontier instead.
			localBudget := tau
			if theta == InfWeight {
				localBudget = 0
			}
			// FIFO local worklist: the local search relaxes in mini-BFS order,
			// keeping tentative distances close to final (a LIFO order would
			// chase depth-first chains of inflated distances).
			parallel.ForRangeCancel(cl.Token(), len(f), 1, func(lo, hi int) {
				queue := make([]uint32, 0, 64)
				nbuf, wbuf := sc.Scratch(), sc.Scratch()
				var edgeCount int64
				for i := lo; i < hi; i++ {
					v := f[i]
					if dist[v].Load() > theta {
						far.Insert(v) // not ready yet; defer to a later phase
						continue
					}
					queue = append(queue[:0], v)
					budget := localBudget
					for head := 0; head < len(queue); head++ {
						u := queue[head]
						du := dist[u].Load()
						nbrs, wts := sc.Arcs(u, nbuf, wbuf)
						for j, w := range nbrs {
							edgeCount++
							nd := du + uint64(wts[j])
							for {
								old := dist[w].Load()
								if nd >= old {
									break
								}
								if dist[w].CompareAndSwap(old, nd) {
									if nd <= theta && budget > 0 {
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
		// New phase: pick θ from the far set and promote the ready part.
		met.AddPhase()
		f := far.Extract()
		// Drop stale entries (already settled below a previous θ and
		// re-processed); keep one representative per improvable vertex.
		sampleCap := 1024
		sample := make([]uint64, 0, sampleCap)
		stride := len(f)/sampleCap + 1
		for i := 0; i < len(f); i += stride {
			sample = append(sample, dist[f[i]].Load())
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		theta = policy.Threshold(sample, len(f))
		if theta < sample[0] {
			theta = sample[0] // guarantee progress
		}
		parallel.ForRangeCancel(cl.Token(), len(f), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := f[i]
				if dist[v].Load() <= theta {
					near.Insert(v)
				} else {
					far.Insert(v)
				}
			}
		})
	}

	// Final check before materializing: only a clean Poll lets the result
	// be claimed complete (see BFS).
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}
