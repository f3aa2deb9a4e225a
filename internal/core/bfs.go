package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/hashbag"
	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

// BFS computes hop distances from src with PASGAL's VGC BFS.
//
// The algorithm is a label-correcting BFS over distance-indexed frontier
// bags (the paper's "multiple frontiers" device, §2.2): bag d holds
// vertices whose tentative distance is d. One round extracts the bag at the
// current distance and each extracted vertex runs a VGC local search,
// relaxing edges with an atomic write-min; improvements within the τ budget
// are expanded immediately in-task (possibly many hops deep), and the rest
// are inserted into the bag matching their new tentative distance. Because
// a local search advances at most τ hops past the current distance, τ+2
// bags indexed modulo suffice. When the frontier is dense, a Beamer-style
// bottom-up round scans improvable vertices' in-neighbors instead.
//
// Unlike textbook BFS a vertex can be visited more than once (a local
// search may install a distance that a later relaxation improves) — that is
// the extra work VGC knowingly trades for fewer synchronizations.
//
// BFS accepts every graph.Adjacency representation: both round bodies
// are written once over graph.Scanner's neighbor lists (see bfsScans).
// A source at or past the vertex count is an error.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation BFS returns
// (nil, partial Metrics, ErrCanceled/ErrDeadline).
func BFS(a graph.Adjacency, src uint32, opt Options) ([]uint32, *Metrics, error) {
	opt = opt.Normalized()
	defer attachRuntimeTracer(opt)()
	met := NewMetrics(opt, "bfs")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	if err := checkVertex("source", src, n); err != nil {
		return nil, met, err
	}
	dist := make([]atomic.Uint32, n)
	parallel.For(n, 0, func(i int) { dist[i].Store(graph.InfDist) })
	out := make([]uint32, n)
	tau := opt.tau()
	// Ring capacity: a local search from the window's deepest extracted
	// distance (cur + window - 1, window <= tau) can advance tau+1 more
	// hops, so 2*tau + 4 distance buckets always suffice.
	nBags := 2*tau + 4
	st := &bfsState{
		n:        n,
		tau:      tau,
		nBags:    nBags,
		denseCut: opt.denseCut(n),
		dist:     dist,
		fr:       newFrontierSet(n, nBags, opt.DisableHashBag, opt.Tracer),
		met:      met,
		cl:       cl,
	}
	// The driver calls these once per round, so the indirect call is
	// amortized over a whole frontier.
	pull, push := bfsScans(a, st)

	dist[src].Store(0)
	st.fr.insert(0, src)
	st.pending.Store(1)
	if err := bfsDrive(st, pull, push); err != nil {
		return nil, met, err
	}
	// Final check before materializing: a cancellation during the last
	// round can empty the pending count without completing the work, so
	// only a clean Poll here lets the result be claimed complete.
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}

// bfsState bundles the frontier machinery shared by the driver and the
// per-representation scans.
type bfsState struct {
	n        int
	tau      int
	nBags    int
	denseCut int64
	dist     []atomic.Uint32
	fr       *frontierSet
	pending  atomic.Int64
	met      *Metrics
	cl       *Canceler
}

// bfsDrive runs the round loop: frontier extraction, the adaptive
// distance window, and the direction switch. It is representation-free;
// all graph access happens inside the pull/push closures.
func bfsDrive(st *bfsState, pull func(cur int), push func(f []uint32, bucketOf []int)) error {
	// The adaptive distance window realizes the paper's "multiple
	// frontiers" device: when frontiers are small (the large-diameter
	// regime) one round extracts a widening window of distance buckets and
	// relies on write-min re-relaxation to repair ordering errors; when
	// frontiers are large the window collapses to a single distance and
	// the round is an ordinary BFS level (optionally bottom-up).
	window := 1
	// A round's deepest extracted distance (cur + window - 1) plus a local
	// search's tau+1-hop advance must stay within the bucket ring, so the
	// window never grows past tau+2 (unchecked doubling could reach 2tau-2
	// for non-power-of-two tau and wrap the ring).
	maxWindow := st.tau + 2
	const windowGrowCut = 2048

	fr := st.fr
	cur := 0
	for st.pending.Load() > 0 {
		// Round boundary: a canceled round may have drained chunks without
		// inserting their discoveries, so the pending count (and the bucket
		// ring invariant below) no longer mean anything — stop before
		// touching them.
		if err := st.cl.Poll(); err != nil {
			return err
		}
		// Advance to the first non-empty bucket; all pending distances lie
		// in [cur+1, cur+nBags) whenever bucket cur is empty, so the scan
		// is bounded and never misses work.
		for fr.empty(cur) {
			cur++
		}
		// Gather up to `window` consecutive distance buckets.
		var f []uint32
		var bucketOf []int // parallel: the distance each entry came from
		grabbed := 0
		for d := cur; d < cur+window && grabbed < st.nBags-st.tau-1; d++ {
			if fr.empty(d) {
				continue
			}
			part := fr.extract(d)
			st.pending.Add(-(int64(len(part)) + fr.dupDebt()))
			f = append(f, part...)
			for range part {
				bucketOf = append(bucketOf, d)
			}
			grabbed++
		}
		st.met.Round(len(f))
		if int64(len(f)) < windowGrowCut && window < maxWindow {
			window = min(2*window, maxWindow)
		} else if window > 1 {
			window /= 2
		}

		if int64(len(f)) >= st.denseCut {
			// Bottom-up: instead of expanding the (dense) frontier, every
			// improvable vertex scans its own in-neighbors and write-mins
			// the best candidate distance. This covers every relaxation
			// the frontier's out-edges would have performed, including
			// repairs of distances a local search over-estimated, so the
			// extracted entries need no further processing.
			st.met.AddBottomUp()
			window = 1 // dense regime: back to level-at-a-time
			pull(cur)
			continue
		}

		// Top-down with VGC local searches. The local worklist is FIFO, so
		// a local search is a mini-BFS: tentative distances stay close to
		// final and redundant re-relaxation is rare (a LIFO local search
		// would chase depth-first chains of inflated distances and repair
		// them over and over).
		push(f, bucketOf)
	}
	return nil
}

// bfsScans builds the two round bodies over a's neighbor lists. Both
// range over what a graph.Scanner returns, so the same body serves every
// representation (see graph.Scanner for what each one hands back).
func bfsScans(a graph.Adjacency, st *bfsState) (pull func(cur int), push func(f []uint32, bucketOf []int)) {
	out := graph.ScanOut(a)
	dist, fr := st.dist, st.fr
	// The pull body exists only when a bottom-up round can happen — with
	// direction optimization off, a directed graph never pays for the
	// transpose behind ScanIn (and an mmap-backed one stays page-in only).
	if st.denseCut != math.MaxInt64 {
		in := graph.ScanIn(a)
		pull = func(cur int) {
			target := uint32(cur + 1)
			// A pull can chain: v may read an in-neighbor distance stored
			// earlier in this same scan, advancing many hops in one round.
			// Unbounded chains would insert past the bucket ring, where the
			// entry lands in a wrong-distance bucket and is dropped as stale
			// on extraction. Cap the advance at the ring's edge; a vertex
			// past the cap is re-relaxed when its capped in-neighbor's
			// bucket is processed, so nothing is lost.
			maxIns := uint32(cur + st.nBags - 1)
			parallel.ForRangeCancel(st.cl.Token(), st.n, 0, func(lo, hi int) {
				var local int64
				nbuf := in.Scratch()
				for vi := lo; vi < hi; vi++ {
					v := uint32(vi)
					best := dist[v].Load()
					if best <= target {
						continue
					}
					for _, u := range in.Neighbors(v, nbuf) {
						local++
						if du := dist[u].Load(); du != graph.InfDist && du+1 < best {
							best = du + 1
							if best <= target {
								break // cannot get closer than cur+1
							}
						}
					}
					if best < dist[v].Load() && best <= maxIns {
						dist[v].Store(best) // sole writer of v this round
						fr.insert(int(best), v)
						st.pending.Add(1)
					}
				}
				st.met.AddEdges(local)
			})
		}
	}
	push = func(f []uint32, bucketOf []int) {
		parallel.ForRangeCancel(st.cl.Token(), len(f), 1, func(lo, hi int) {
			var qbuf [64]uint32
			queue := qbuf[:0]
			nbuf := out.Scratch()
			var edgeCount int64
			for i := lo; i < hi; i++ {
				v := f[i]
				if dist[v].Load() != uint32(bucketOf[i]) {
					continue // stale: improved and handled elsewhere
				}
				queue = append(queue[:0], v)
				budget := st.tau
				for head := 0; head < len(queue); head++ {
					u := queue[head]
					du := dist[u].Load()
					nd := du + 1
					nbrs := out.Neighbors(u, nbuf)
					for _, w := range nbrs {
						edgeCount++
						for {
							old := dist[w].Load()
							if nd >= old {
								break
							}
							if dist[w].CompareAndSwap(old, nd) {
								if budget > 0 {
									queue = append(queue, w)
								} else {
									fr.insert(int(nd), w)
									st.pending.Add(1)
								}
								break
							}
						}
					}
					budget -= len(nbrs)
					if budget <= 0 && head+1 < len(queue) {
						// Flush the remaining local work to the shared
						// frontier bags.
						for _, w := range queue[head+1:] {
							d := dist[w].Load()
							fr.insert(int(d), w)
							st.pending.Add(1)
						}
						queue = queue[:head+1]
					}
				}
			}
			st.met.AddEdges(edgeCount)
		})
	}
	return pull, push
}

// frontierSet is the rotating set of distance-indexed frontiers: hash bags
// by default, or flat dense boolean arrays for the ablation.
type frontierSet struct {
	bags    []*hashbag.Bag
	flat    [][]atomic.Uint32 // dense variant: bit flags per vertex
	flatN   []atomic.Int64
	n       int
	lastDup int64
}

func newFrontierSet(n, k int, flat bool, tr *trace.Tracer) *frontierSet {
	fs := &frontierSet{n: n}
	if flat {
		fs.flat = make([][]atomic.Uint32, k)
		fs.flatN = make([]atomic.Int64, k)
		for i := range fs.flat {
			fs.flat[i] = make([]atomic.Uint32, (n+31)/32)
		}
		return fs
	}
	fs.bags = make([]*hashbag.Bag, k)
	for i := range fs.bags {
		fs.bags[i] = hashbag.New(64)
		fs.bags[i].SetTracer(tr)
	}
	return fs
}

func (fs *frontierSet) idx(d int) int {
	if fs.bags != nil {
		return d % len(fs.bags)
	}
	return d % len(fs.flat)
}

func (fs *frontierSet) insert(d int, v uint32) {
	i := fs.idx(d)
	if fs.bags != nil {
		fs.bags[i].Insert(v)
		return
	}
	word, bit := v/32, uint32(1)<<(v%32)
	for {
		old := fs.flat[i][word].Load()
		if old&bit != 0 {
			fs.flatN[i].Add(1) // duplicate: still counts as an insert
			return
		}
		if fs.flat[i][word].CompareAndSwap(old, old|bit) {
			fs.flatN[i].Add(1)
			return
		}
	}
}

func (fs *frontierSet) empty(d int) bool {
	i := fs.idx(d)
	if fs.bags != nil {
		return fs.bags[i].Empty()
	}
	return fs.flatN[i].Load() == 0
}

// extract drains frontier d. The dense variant pays an O(n/32) scan — the
// cost the hash bag exists to avoid.
func (fs *frontierSet) extract(d int) []uint32 {
	i := fs.idx(d)
	if fs.bags != nil {
		return fs.bags[i].Extract()
	}
	inserts := fs.flatN[i].Swap(0)
	words := fs.flat[i]
	var out []uint32
	lists := make([][]uint32, (len(words)+1023)/1024)
	parallel.For(len(lists), 1, func(b int) {
		lo := b * 1024
		hi := min(lo+1024, len(words))
		var l []uint32
		for w := lo; w < hi; w++ {
			bv := words[w].Swap(0)
			for bv != 0 {
				tz := bits.TrailingZeros32(bv)
				l = append(l, uint32(w*32+tz))
				bv &= bv - 1
			}
		}
		lists[b] = l
	})
	for _, l := range lists {
		out = append(out, l...)
	}
	// The bitmap deduplicates, but callers track pending work by insert
	// count; stash the swallowed-duplicate count for dupDebt.
	fs.lastDup = inserts - int64(len(out))
	return out
}

// lastDup holds, after extract, the number of duplicate inserts swallowed
// by the dense bitmap (the hash bag keeps duplicates so it is always 0
// there). Callers must subtract it from their pending count.
func (fs *frontierSet) dupDebt() int64 {
	d := fs.lastDup
	fs.lastDup = 0
	return d
}
