// Package msbfs is the batched multi-source traversal engine (MS-BFS): it
// runs up to 64 breadth-first searches simultaneously over one shared edge
// scan, which is the query shape of a serving system — thousands of
// point-to-point / reachability / distance queries per second against the
// same in-memory graph — rather than the single-run latency shape the rest
// of the library optimizes.
//
// # Lane layout
//
// Sources are split into groups of 64 lanes. Within a group every vertex
// carries one uint64 word per state array: bit l of seen[v] means "lane l
// has reached v", bit l of cur[v] means "v is on lane l's current
// frontier". A push round advances the whole group with a single scan of
// the frontier's out-edges:
//
//	next[w] |= cur[u] &^ seen[w]   // one OR advances up to 64 traversals
//
// and a pull (bottom-up) round — taken past the same DenseFrac frontier
// heuristic scalar BFS uses — has every unreached vertex union its
// in-neighbors' frontier words instead, with no atomics at all. Rounds are
// level-synchronous: distances settle at the round barrier, so hop d of
// every lane is final before hop d+1 starts.
//
// The engine plugs into the library substrate end to end: loops run on
// internal/parallel with chunk-claim cancellation (ForRangeCancel, and
// Collect for the rounds, whose next frontier has one writer per entry
// and so is built from per-chunk lists rather than a concurrent set),
// core.Options is normalized on entry, Options.Ctx cancels at every
// round and group boundary, and the run reports core.Metrics plus trace
// counters (CtrLaneScans counts shared edge scans; each advanced up to 64
// lanes). See docs/BATCHED.md.
//
// The batching front door for single-source callers is the Coalescer.
package msbfs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// LaneWidth is the number of traversals one group word advances at once.
const LaneWidth = 64

// Run performs a batched BFS: it returns one hop-distance row per source
// (row i is the distances from sources[i]; graph.InfDist marks unreachable
// vertices), exactly as if core.BFS had been looped over the sources.
// Duplicate sources are allowed (each occupies its own lane and gets its
// own row). A source id at or past the vertex count is reported as an
// error before any work. Every graph.Adjacency representation is accepted.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation Run returns
// (nil, partial Metrics, ErrCanceled/ErrDeadline) — never a partial batch.
func Run(a graph.Adjacency, sources []uint32, opt core.Options) ([][]uint32, *core.Metrics, error) {
	out, err := newRows(a, sources, graph.InfDist)
	met, err := runBatch(a, sources, opt, err, func(base, hi int) *sink {
		return &sink{dist: out[base:hi]}
	})
	if err != nil {
		return nil, met, err
	}
	return out, met, nil
}

// RunReachable is the reachability form of Run: row i marks every vertex
// reachable from sources[i], matching a looped core.Reachable with a
// single source per call. It skips distance bookkeeping, so it is the
// cheapest batched query.
func RunReachable(a graph.Adjacency, sources []uint32, opt core.Options) ([][]bool, *core.Metrics, error) {
	out, err := newRows(a, sources, false)
	met, err := runBatch(a, sources, opt, err, func(base, hi int) *sink {
		return &sink{reach: out[base:hi]}
	})
	if err != nil {
		return nil, met, err
	}
	return out, met, nil
}

// RunPointToPoint answers a batch of (src, dst) hop-distance queries:
// result i is the number of edges on a shortest src->dst path of pairs[i]
// (graph.InfDist when dst is unreachable). It is the unweighted, batched
// counterpart of core.PointToPoint: a lane stops spreading the round after
// its destination settles, and a group stops as soon as every lane is done.
func RunPointToPoint(a graph.Adjacency, pairs [][2]uint32, opt core.Options) ([]uint32, *core.Metrics, error) {
	n := a.NumVertices()
	srcs := make([]uint32, len(pairs))
	dsts := make([]uint32, len(pairs))
	var err error
	for i, p := range pairs {
		srcs[i], dsts[i] = p[0], p[1]
		if err == nil && int(p[0]) >= n {
			err = fmt.Errorf("msbfs: pair %d source %d out of range [0, %d)", i, p[0], n)
		}
		if err == nil && int(p[1]) >= n {
			err = fmt.Errorf("msbfs: pair %d destination %d out of range [0, %d)", i, p[1], n)
		}
	}
	out := make([]uint32, len(pairs))
	parallel.Fill(out, graph.InfDist)
	met, err := runBatch(a, srcs, opt, err, func(base, hi int) *sink {
		return &sink{targets: dsts[base:hi], ptp: out[base:hi]}
	})
	if err != nil {
		return nil, met, err
	}
	return out, met, nil
}

// runBatch is the driver behind the three entry points: the run's
// prologue, then one runGroup per group of up to 64 lanes of srcs, each
// settling into the sink sinkFor returns for lanes [base, hi), with a
// cancellation check at every group boundary and a last one before the
// batch is handed back (see core.BFS). invalid is the wrapper's verdict on
// its own inputs, reported from here so that a refused batch still comes
// with the run's Metrics.
func runBatch(a graph.Adjacency, srcs []uint32, opt core.Options, invalid error,
	sinkFor func(base, hi int) *sink) (*core.Metrics, error) {
	opt = opt.Normalized()
	met := core.NewMetrics(opt, "msbfs")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	if invalid != nil {
		return met, invalid
	}
	var st *state
	for base := 0; base < len(srcs); base += LaneWidth {
		// Group boundary: stop between lane groups, not just between rounds.
		if err := cl.Poll(); err != nil {
			return met, err
		}
		met.AddPhase()
		hi := min(base+LaneWidth, len(srcs))
		if st == nil {
			st = newState(a.NumVertices())
		} else {
			st.reset()
		}
		if err := runGroup(a, st, srcs[base:hi], sinkFor(base, hi), opt, met, cl); err != nil {
			return met, err
		}
	}
	return met, cl.Poll()
}

// newRows checks that every source is a vertex of a and returns one
// result row per source, n entries set to fill, cut from one flat backing
// array: B rows land contiguously, one allocation.
func newRows[T comparable](a graph.Adjacency, sources []uint32, fill T) ([][]T, error) {
	n := a.NumVertices()
	for i, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("msbfs: source %d (index %d) out of range [0, %d)", s, i, n)
		}
	}
	flat := make([]T, len(sources)*n)
	if fill != *new(T) {
		parallel.Fill(flat, fill)
	}
	out := make([][]T, len(sources))
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out, nil
}

// state is the per-group lane storage, reused across a run's groups.
// seen and cur are plain words: both are written only at round barriers
// (settle runs each vertex in exactly one chunk) and read-only inside the
// scan loops, so the rounds' join is the only synchronization they need.
// next is the one cross-task accumulator and is routed through atomics.
type state struct {
	n    int
	seen []uint64
	cur  []uint64
	next []atomic.Uint64
}

func newState(n int) *state {
	return &state{
		n:    n,
		seen: make([]uint64, n),
		cur:  make([]uint64, n),
		next: make([]atomic.Uint64, n),
	}
}

// reset clears the lane words for the next group. next is already zero on
// every completed round's exit, but an early-terminated point-to-point
// group (or a cancellation mid-settle) can leave bits behind in any of the
// three arrays, so all of them are wiped.
func (st *state) reset() {
	parallel.Fill(st.seen, 0)
	parallel.Fill(st.cur, 0)
	parallel.ForRange(st.n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.next[i].Store(0)
		}
	})
}

// sink receives settled (vertex, lane bits, hop distance) triples. Exactly
// one of dist/reach/ptp is active per run kind.
type sink struct {
	dist    [][]uint32 // distance rows, one per lane
	reach   [][]bool   // reachability rows, one per lane
	targets []uint32   // point-to-point: destination per lane
	ptp     []uint32   // point-to-point: result per lane

	// remaining holds the lanes still searching in point-to-point mode;
	// settle workers clear bits concurrently, so it is atomic.
	remaining atomic.Uint64
}

// settle records that the lanes in bs reached v at hop distance d. Called
// exactly once per (group, vertex, round), from a single settle-loop chunk.
func (sk *sink) settle(v uint32, bs uint64, d uint32) {
	switch {
	case sk.dist != nil:
		for b := bs; b != 0; b &= b - 1 {
			sk.dist[bits.TrailingZeros64(b)][v] = d
		}
	case sk.reach != nil:
		for b := bs; b != 0; b &= b - 1 {
			sk.reach[bits.TrailingZeros64(b)][v] = true
		}
	}
	if sk.targets != nil {
		for b := bs; b != 0; b &= b - 1 {
			l := bits.TrailingZeros64(b)
			if sk.targets[l] == v {
				sk.ptp[l] = d
				// CAS rather than the go1.23 And intrinsic; see the push
				// loop's note on the Or intrinsic miscompile.
				for {
					old := sk.remaining.Load()
					if sk.remaining.CompareAndSwap(old, old&^(uint64(1)<<l)) {
						break
					}
				}
			}
		}
	}
}

// runGroup runs one <= 64-lane group to completion (or cancellation). st
// must be zeroed on entry.
//
// Like core.BFS, the two lane scans (push over out-edges, pull over
// in-edges) each exist once and range over a graph.Scanner's lists; the
// pull stops at the arc where every missing lane has found a parent.
func runGroup(a graph.Adjacency, st *state, srcs []uint32, sk *sink, opt core.Options,
	met *core.Metrics, cl *core.Canceler) error {
	n := a.NumVertices()
	full := ^uint64(0) >> (LaneWidth - len(srcs))
	sk.remaining.Store(full)
	denseCut := opt.DenseCut(n)
	tr := opt.Tracer

	// Both are declared before they are assigned so that the round loop's
	// pull(...)/push(...) stay real calls: go1.24 inlines a closure literal
	// that is only ever called directly, and the chunk closures nested in
	// the inlined copy are then compiled without inlining of their own —
	// every atomic Load/CAS in the scan becomes a function call. Each
	// returns the next frontier, one entry per vertex whose next word it
	// took off zero, concatenated in chunk order (parallel.Collect).
	var pull func(active uint64) []uint32
	var push func(front []uint32, active uint64) []uint32
	out := graph.ScanOut(a)
	// The pull body exists only when a pull round can happen, so a
	// push-only run never builds the transpose behind ScanIn.
	if denseCut != math.MaxInt64 {
		in := graph.ScanIn(a)
		pull = func(active uint64) []uint32 {
			return parallel.Collect(cl.Token(), n, 0, func(lo, hi int, next []uint32) []uint32 {
				var scans int64
				nbuf := in.Scratch()
				for vi := lo; vi < hi; vi++ {
					v := uint32(vi)
					want := active &^ st.seen[v]
					if want == 0 {
						continue
					}
					var acc uint64
					for _, u := range in.Neighbors(v, nbuf) {
						scans++
						acc |= st.cur[u]
						if acc&want == want {
							break // every missing lane found a parent
						}
					}
					if nb := acc & want; nb != 0 {
						st.next[v].Store(nb)
						next = append(next, v)
					}
				}
				met.AddEdges(scans)
				tr.LaneScans(scans)
				return next
			})
		}
	}
	push = func(front []uint32, active uint64) []uint32 {
		return parallel.Collect(cl.Token(), len(front), 16, func(lo, hi int, next []uint32) []uint32 {
			var scans int64
			nbuf := out.Scratch()
			for i := lo; i < hi; i++ {
				u := front[i]
				fu := st.cur[u] & active
				if fu == 0 {
					continue
				}
				for _, w := range out.Neighbors(u, nbuf) {
					scans++
					diff := fu &^ st.seen[w]
					if diff == 0 {
						continue
					}
					// Cheap pre-check dodges the contended RMW when every
					// new bit is already accumulated.
					if diff&^st.next[w].Load() == 0 {
						continue
					}
					// Keep this a Load/CAS loop, not st.next[w].Or(diff):
					// the go1.23 Or-with-result intrinsic miscompiles
					// inside this loop on the pinned go1.24.0/amd64
					// toolchain (lane words silently vanish; see
					// TestPushIntrinsicRegression), and CAS keeps the
					// module's language floor at go1.22.
					for {
						old := st.next[w].Load()
						if st.next[w].CompareAndSwap(old, old|diff) {
							if old == 0 {
								next = append(next, w) // first setter owns the list entry
							}
							break
						}
					}
				}
			}
			met.AddEdges(scans)
			tr.LaneScans(scans)
			return next
		})
	}

	// Round 0: sources settle at distance 0. Duplicates share a frontier
	// word, so the frontier list stays duplicate-free.
	var front []uint32
	for l, s := range srcs {
		if st.cur[s] == 0 {
			front = append(front, s)
		}
		st.cur[s] |= uint64(1) << l
	}
	for _, v := range front {
		st.seen[v] = st.cur[v]
		sk.settle(v, st.cur[v], 0)
	}

	d := uint32(0)
	for len(front) > 0 {
		// Round boundary: a canceled round may have drained scan or settle
		// chunks, so the lane words no longer describe a consistent level —
		// stop before trusting them.
		if err := cl.Poll(); err != nil {
			return err
		}
		// active masks the lanes that still propagate: all of them, except
		// point-to-point lanes whose destination already settled.
		active := full
		if sk.targets != nil {
			active = sk.remaining.Load() & full
			if active == 0 {
				break
			}
		}
		d++
		met.Round(len(front))

		var newFront []uint32
		if int64(len(front)) >= denseCut {
			// Pull (bottom-up): every vertex missing active lanes unions its
			// in-neighbors' frontier words — no atomics, v is the sole
			// writer of next[v] this round.
			met.AddBottomUp()
			newFront = pull(active)
		} else {
			// Push (top-down): one scan of the frontier's out-edges advances
			// every active lane at once.
			newFront = push(front, active)
		}

		// Settle barrier, two joins: clear the old frontier words first (a
		// vertex can be in both lists on a cycle), then fold next into
		// seen/cur and record distances — each vertex in exactly one chunk,
		// so the writes are plain.
		parallel.ForCancel(cl.Token(), len(front), 0, func(i int) {
			st.cur[front[i]] = 0
		})
		parallel.ForRangeCancel(cl.Token(), len(newFront), 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := newFront[i]
				bs := st.next[v].Load()
				st.next[v].Store(0)
				st.seen[v] |= bs
				st.cur[v] = bs
				sk.settle(v, bs, d)
			}
		})
		front = newFront
	}
	return nil
}
