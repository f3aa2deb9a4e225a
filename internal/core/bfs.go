package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// BFS computes hop distances from src with PASGAL's VGC BFS.
//
// The algorithm is a label-correcting BFS over distance-indexed frontiers
// (the paper's "multiple frontiers" device, §2.2): frontier d holds
// vertices whose tentative distance is d. One round extracts the frontier
// at the current distance and each extracted vertex runs a VGC local
// search, relaxing edges with an atomic write-min; improvements within the
// τ budget are expanded immediately in-task (possibly many hops deep), and
// the rest are filed, by the task whose CAS won them, in its own list for
// their new tentative distance (frontierSet). A ring of 2τ+4 distance
// slots indexed modulo suffices (see nSlots). When the frontier is dense, a
// Beamer-style bottom-up round scans improvable vertices' in-neighbors
// instead.
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
	nSlots := 2*tau + 4
	vgc := &localSearch{slots: nSlots, met: met, cl: cl}
	fr := newFrontierSet(n, nSlots, opt.DisableHashBag, vgc)
	denseCut := opt.denseCut(n)
	out := graph.ScanOut(a)
	// Bound once, never reassigned: the pull closure captures it by value.
	in := pullScanner(a, denseCut)

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
	vgc.grow(1)
	fr.insert(vgc.team[0], 0, src)
	cur := 0
	for {
		// Round boundary: a canceled round may have drained chunks without
		// inserting their discoveries, so the bucket ring below no longer
		// means anything — stop before reading it.
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		// Advance to the first non-empty bucket. Whenever bucket cur is
		// empty every pending distance lies in [cur+1, cur+nSlots), so one
		// lap of nSlots empty buckets proves no work is left: termination
		// needs no count of pending entries.
		lap := 0
		for ; lap < nSlots && fr.empty(cur); lap++ {
			cur++
		}
		if lap == nSlots {
			break
		}
		f, bucketOf := fr.gather(cur, window, nSlots-tau-1)
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
			maxIns := uint32(cur + nSlots - 1)
			// v is the sole writer of dist[v] this round (frontierSet.file).
			vgc.each(n, 0, func(s *scratch, lo, hi int) {
				var local int64
				for vi := lo; vi < hi; vi++ {
					v := uint32(vi)
					best := dist[v].Load()
					if best <= target {
						continue
					}
					for _, u := range in.Neighbors(v, s.nbuf) {
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
						fr.file(s, int(best), v)
					}
				}
				s.edges += local
			})
			continue
		}

		// Top-down with VGC local searches (localSearch.round); a stale
		// entry was improved and handled elsewhere.
		vgc.round(f, tau, func(i int) bool { return dist[f[i]].Load() == bucketOf[i] },
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
			func(tail []uint32, s *scratch) {
				for _, w := range tail {
					fr.insert(s, int(dist[w].Load()), w)
				}
			})
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

// frontierSet is the rotating set of distance-indexed frontiers: slot
// d % k of every participant's lists holds frontier d, plus, in the flat
// ablation, slot d's dense bitmap, where top-down spills go instead.
type frontierSet struct {
	k        int // ring size: distance d lives in slot d % k
	ls       *localSearch
	flat     [][]atomic.Uint32 // dense variant: bit flags per vertex
	nonEmpty []atomic.Bool     // dense variant: set by the first insert after a drain
	f        []uint32          // gather's result, reused every round
	bucketOf []uint32          // index for index, the distance of f's entry
}

func newFrontierSet(n, k int, flat bool, ls *localSearch) *frontierSet {
	fs := &frontierSet{k: k, ls: ls}
	if flat {
		fs.flat = make([][]atomic.Uint32, k)
		fs.nonEmpty = make([]atomic.Bool, k)
		for i := range fs.flat {
			fs.flat[i] = make([]atomic.Uint32, (n+31)/32)
		}
	}
	return fs
}

// insert is a top-down spill of v, discovered by s, to frontier d.
func (fs *frontierSet) insert(s *scratch, d int, v uint32) {
	if fs.flat == nil {
		fs.file(s, d, v)
		return
	}
	i := d % fs.k
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

// file adds v to frontier d in s's own list, in either mode: a bottom-up
// round's insert, which has one writer per vertex and no repeats.
func (fs *frontierSet) file(s *scratch, d int, v uint32) {
	i := d % fs.k
	s.out[i] = append(s.out[i], v)
}

func (fs *frontierSet) empty(d int) bool {
	i := d % fs.k
	return fs.ls.empty(i) && (fs.flat == nil || !fs.nonEmpty[i].Load())
}

// gather drains up to grab non-empty buckets among distances [cur,
// cur+window), returning their entries and, index for index, each's
// distance. Both slices are reused by the next call.
func (fs *frontierSet) gather(cur, window, grab int) (f, bucketOf []uint32) {
	f, bucketOf = fs.f[:0], fs.bucketOf[:0]
	for d := cur; d < cur+window && grab > 0; d++ {
		if fs.empty(d) {
			continue
		}
		at := len(f)
		f = fs.extract(f, d)
		for range f[at:] {
			bucketOf = append(bucketOf, uint32(d))
		}
		grab--
	}
	fs.f, fs.bucketOf = f, bucketOf
	return f, bucketOf
}

// extract drains frontier d onto dst: the lists, then the flat
// ablation's bitmap, an O(n/32) scan — the cost the lists avoid.
func (fs *frontierSet) extract(dst []uint32, d int) []uint32 {
	i := d % fs.k
	dst = fs.ls.take(dst, i)
	if fs.flat == nil {
		return dst
	}
	fs.nonEmpty[i].Store(false)
	words := fs.flat[i]
	return append(dst, parallel.Collect(nil, len(words), 1024, func(lo, hi int, l []uint32) []uint32 {
		for w := lo; w < hi; w++ {
			bv := words[w].Swap(0)
			for bv != 0 {
				tz := bits.TrailingZeros32(bv)
				l = append(l, uint32(w*32+tz))
				bv &= bv - 1
			}
		}
		return l
	})...)
}
