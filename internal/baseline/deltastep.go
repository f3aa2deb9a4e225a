package baseline

import (
	"sync"
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// bucketRing is the classic Δ-stepping bucket structure: a circular array
// of mutex-guarded vertex lists, wide enough that every tentative distance
// in flight fits in the window.
type bucketRing struct {
	buckets []struct {
		mu    sync.Mutex
		items []uint32
	}
}

func newBucketRing(k int) *bucketRing {
	r := &bucketRing{}
	r.buckets = make([]struct {
		mu    sync.Mutex
		items []uint32
	}, k)
	return r
}

func (r *bucketRing) add(b int, v uint32) {
	s := &r.buckets[b%len(r.buckets)]
	s.mu.Lock()
	s.items = append(s.items, v)
	s.mu.Unlock()
}

func (r *bucketRing) take(b int) []uint32 {
	s := &r.buckets[b%len(r.buckets)]
	s.mu.Lock()
	items := s.items
	s.items = nil
	s.mu.Unlock()
	return items
}

// DeltaSteppingSSSP is plain Meyer–Sanders Δ-stepping with level-
// synchronous bucket processing and no VGC: every relaxation round-trips
// through the shared buckets, one global synchronization per inner round.
// delta <= 0 picks a heuristic Δ (average edge weight).
//
// Of opt, only the ctx, tracer, and metric options apply; Δ remains this
// baseline's own parameter.
func DeltaSteppingSSSP(g *graph.Graph, src uint32, delta uint64, opt core.Options) ([]uint64, *core.Metrics, error) {
	if !g.Weighted() {
		panic("baseline: DeltaSteppingSSSP requires a weighted graph")
	}
	met := core.NewMetrics(opt, "delta-sssp")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	dist := make([]atomic.Uint64, n)
	parallel.For(n, 0, func(i int) { dist[i].Store(core.InfWeight) })
	out := make([]uint64, n)
	if n == 0 {
		return out, met, cl.Poll()
	}
	if len(g.Edges) == 0 {
		dist[src].Store(0)
		parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
		return out, met, cl.Poll()
	}
	if delta == 0 {
		total := parallel.Sum(len(g.Weights), func(i int) uint64 { return uint64(g.Weights[i]) })
		delta = total/uint64(len(g.Weights)) + 1
	}
	maxW := uint64(parallel.Max(len(g.Weights), func(i int) uint32 { return g.Weights[i] }))
	// All in-flight distances live within [kΔ, kΔ + maxW + Δ): a window of
	// maxW/Δ + 2 buckets.
	ring := newBucketRing(int(maxW/delta) + 2)
	var pending atomic.Int64

	dist[src].Store(0)
	ring.add(0, src)
	pending.Store(1)

	for k := 0; pending.Load() > 0; k++ {
		// Phase boundary check; the inner loop re-polls before every take,
		// but an empty bucket must not advance the phase uncancelled.
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		lo, hi := uint64(k)*delta, uint64(k+1)*delta
		// A vertex can be improved within its own bucket (light edges), so
		// the bucket is reprocessed until it stops refilling.
		for {
			// Round boundary: a canceled round invalidates the pending
			// count (drained chunks never re-add their discoveries).
			if err := cl.Poll(); err != nil {
				return nil, met, err
			}
			f := ring.take(k)
			if len(f) == 0 {
				break
			}
			pending.Add(int64(-len(f)))
			met.Round(len(f))
			parallel.ForRangeCancel(cl.Token(), len(f), 1, func(flo, fhi int) {
				var edges int64
				for i := flo; i < fhi; i++ {
					u := f[i]
					du := dist[u].Load()
					if du < lo || du >= hi {
						continue // stale (processed in an earlier bucket)
					}
					wts := g.NeighborWeights(u)
					for j, w := range g.Neighbors(u) {
						edges++
						nd := du + uint64(wts[j])
						for {
							old := dist[w].Load()
							if nd >= old {
								break
							}
							if dist[w].CompareAndSwap(old, nd) {
								ring.add(int(nd/delta), w)
								pending.Add(1)
								break
							}
						}
					}
				}
				met.AddEdges(edges)
			})
		}
		met.AddPhase()
	}
	// Final check before materializing (see GBBSBFS).
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}
