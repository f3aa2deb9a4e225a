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
// BFS accepts every graph.Adjacency representation: both round bodies are
// written once over graph.Scanner's neighbor lists. A source at or past
// the vertex count is an error. BFSTree adds parents to the same run.
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
	// Allocated here, not after the last round, where it can start a GC
	// cycle that overlaps the caller's next kernel (SSSP: +8–13 %).
	res := make([]uint32, n)
	tau := opt.tau()
	// Ring capacity: a local search from the window's deepest extracted
	// distance (cur + window - 1, window <= tau) can advance tau+1 more
	// hops, so 2*tau + 4 distance buckets always suffice.
	nBags := 2*tau + 4
	fr := newFrontierSet(n, nBags, opt.DisableHashBag, opt.Tracer)
	denseCut := opt.denseCut(n)
	out := graph.ScanOut(a)
	// Bound once, never reassigned: the pull closure captures it by value.
	in := pullScanner(a, denseCut)
	vgc := &localSearch{met: met, cl: cl}

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
	maxWindow := tau + 2
	const windowGrowCut = 2048

	dist[src].Store(0)
	fr.insert(0, src)
	cur := 0
	for {
		// Round boundary: a canceled round may have drained chunks without
		// inserting their discoveries, so the bucket ring below no longer
		// means anything — stop before reading it.
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		// Advance to the first non-empty bucket. Whenever bucket cur is
		// empty every pending distance lies in [cur+1, cur+nBags), so one
		// lap of nBags empty buckets proves no work is left: termination
		// needs no count of pending entries.
		lap := 0
		for ; lap < nBags && fr.empty(cur); lap++ {
			cur++
		}
		if lap == nBags {
			break
		}
		f, bucketOf := fr.gather(cur, window, nBags-tau-1)
		met.Round(len(f))
		if int64(len(f)) < windowGrowCut && window < maxWindow {
			window = min(2*window, maxWindow)
		} else if window > 1 {
			window /= 2
		}

		// The chunk and visit closures sit directly in this loop and
		// capture only values bound once per round (DESIGN.md §2.9, trap 3).
		if int64(len(f)) >= denseCut {
			// Bottom-up: instead of expanding the (dense) frontier, every
			// improvable vertex scans its own in-neighbors and write-mins
			// the best candidate distance. This covers every relaxation
			// the frontier's out-edges would have performed, including
			// repairs of distances a local search over-estimated, so the
			// extracted entries need no further processing.
			met.AddBottomUp()
			window = 1 // dense regime: back to level-at-a-time
			target := uint32(cur + 1)
			// A pull can chain: v may read an in-neighbor distance stored
			// earlier in this same scan, advancing many hops in one round.
			// Unbounded chains would insert past the bucket ring, where the
			// entry lands in a wrong-distance bucket and is dropped as stale
			// on extraction. Cap the advance at the ring's edge; a vertex
			// past the cap is re-relaxed when its capped in-neighbor's
			// bucket is processed, so nothing is lost.
			maxIns := uint32(cur + nBags - 1)
			// v is the sole writer of dist[v] this round, so the vertices
			// set to target need no concurrent set: each chunk lists its
			// own, and bucket target receives the whole list. Only chained
			// values, spread over many buckets, go through insert.
			atTarget := parallel.Collect(cl.Token(), n, 0, func(lo, hi int, next []uint32) []uint32 {
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
						if best == target {
							next = append(next, v)
						} else {
							fr.insert(int(best), v)
						}
					}
				}
				met.AddEdges(local)
				return next
			})
			fr.hand(int(target), atTarget)
			continue
		}

		// Top-down with VGC local searches (localSearch.round); a stale
		// entry was improved and handled elsewhere.
		vgc.round(f, tau, func(i int) bool { return dist[f[i]].Load() == uint32(bucketOf[i]) },
			func(u uint32, s *scratch) int {
				nd := dist[u].Load() + 1
				nbrs := out.Neighbors(u, s.nbuf)
				for _, w := range nbrs {
					for {
						old := dist[w].Load()
						if nd >= old {
							break
						}
						if dist[w].CompareAndSwap(old, nd) {
							s.queue = append(s.queue, w)
							break
						}
					}
				}
				return len(nbrs)
			},
			func(w uint32) { fr.insert(int(dist[w].Load()), w) })
	}
	// Final check before materializing: a cancellation during the last
	// round can leave the ring empty without completing the work, so only a
	// clean Poll here lets the result be claimed complete.
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { res[i] = dist[i].Load() })
	return res, met, nil
}

// pullScanner returns the in-neighbor scanner for bottom-up rounds, or nil
// when none can happen: with direction optimization off a directed graph
// never pays for the transpose behind graph.ScanIn (and an mmap-backed one
// stays page-in only). A variable assigned under an if instead counts as
// reassigned, and the closure capturing it would move it to the heap.
func pullScanner(a graph.Adjacency, denseCut int64) *graph.Scanner {
	if denseCut == math.MaxInt64 {
		return nil
	}
	return graph.ScanIn(a)
}

// frontierSet is the rotating set of distance-indexed frontiers: hash bags
// by default, or flat dense bitmaps for the ablation. Either way a slot
// also holds the list a bottom-up round handed it whole (hand), which
// empty and extract count in with the slot's concurrent inserts.
type frontierSet struct {
	k        int // ring size: distance d lives in slot d % k
	bags     []*hashbag.Bag
	flat     [][]atomic.Uint32 // dense variant: bit flags per vertex
	nonEmpty []atomic.Bool     // dense variant: set by the first insert after a drain
	handed   [][]uint32        // per slot: lists handed over between rounds
}

func newFrontierSet(n, k int, flat bool, tr *trace.Tracer) *frontierSet {
	fs := &frontierSet{k: k, handed: make([][]uint32, k)}
	if flat {
		fs.flat = make([][]atomic.Uint32, k)
		fs.nonEmpty = make([]atomic.Bool, k)
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

func (fs *frontierSet) insert(d int, v uint32) {
	i := d % fs.k
	if fs.bags != nil {
		fs.bags[i].Insert(v)
		return
	}
	word, bit := v/32, uint32(1)<<(v%32)
	for {
		old := fs.flat[i][word].Load()
		if old&bit != 0 {
			return // already a member; whoever set the bit sets the flag
		}
		if fs.flat[i][word].CompareAndSwap(old, old|bit) {
			break
		}
	}
	// Read before writing so a busy bucket's flag line stays shared.
	if !fs.nonEmpty[i].Load() {
		fs.nonEmpty[i].Store(true)
	}
}

// hand adds list, whole, to frontier d. Unlike insert it must not race
// with the slot's other methods: a round calls it after its join.
func (fs *frontierSet) hand(d int, list []uint32) {
	i := d % fs.k
	if fs.handed[i] == nil {
		fs.handed[i] = list
	} else {
		fs.handed[i] = append(fs.handed[i], list...)
	}
}

func (fs *frontierSet) empty(d int) bool {
	i := d % fs.k
	if len(fs.handed[i]) > 0 {
		return false
	}
	if fs.bags != nil {
		return fs.bags[i].Empty()
	}
	return !fs.nonEmpty[i].Load()
}

// gather drains up to grab non-empty buckets among distances [cur,
// cur+window), returning their entries and, index for index, each's distance.
func (fs *frontierSet) gather(cur, window, grab int) (f []uint32, bucketOf []int) {
	for d := cur; d < cur+window && grab > 0; d++ {
		if fs.empty(d) {
			continue
		}
		part := fs.extract(d)
		f = append(f, part...)
		for range part {
			bucketOf = append(bucketOf, d)
		}
		grab--
	}
	return f, bucketOf
}

// extract drains frontier d: its handed list, then its concurrent inserts.
// The dense variant pays an O(n/32) scan — the cost the hash bag exists to
// avoid.
func (fs *frontierSet) extract(d int) []uint32 {
	i := d % fs.k
	var ins []uint32
	if fs.bags != nil {
		ins = fs.bags[i].Extract()
	} else {
		fs.nonEmpty[i].Store(false)
		words := fs.flat[i]
		ins = parallel.Collect(nil, len(words), 1024, func(lo, hi int, l []uint32) []uint32 {
			for w := lo; w < hi; w++ {
				bv := words[w].Swap(0)
				for bv != 0 {
					tz := bits.TrailingZeros32(bv)
					l = append(l, uint32(w*32+tz))
					bv &= bv - 1
				}
			}
			return l
		})
	}
	out := fs.handed[i]
	fs.handed[i] = nil
	if out == nil {
		return ins
	}
	return append(out, ins...)
}
