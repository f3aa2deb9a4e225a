package core

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// SCC computes strongly connected components with PASGAL's VGC SCC
// algorithm (Wang et al.): rounds of multi-pivot forward/backward
// reachability with VGC local searches (propagate).
//
// Each round takes a doubling batch of pivots among live vertices — the k
// with the smallest per-round hash, see pickPivots — and propagates,
// separately forward and backward, the *minimum pivot index* that reaches
// each live vertex (an atomic write-min — reachability does not need BFS
// order, which is what lets VGC visit vertices in arbitrary multi-hop
// order). Vertices whose forward and backward labels name the same pivot
// form that pivot's SCC and settle; the rest are partitioned by their
// (forward, backward) label pair — two vertices of one SCC always share
// both labels, so an SCC is never split — and edges crossing partitions
// are ignored from then on. Size-1 SCCs are first peeled off by trimming
// passes. Outside its two searches a round costs O(|live|): no sort, no
// reordering of live, and no label pass over vertices that settled.
//
// It returns a per-vertex component label (the id of a representative
// vertex) and the component count.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation SCC
// returns (nil, 0, partial Metrics, ErrCanceled/ErrDeadline).
func SCC(a graph.Adjacency, opt Options) ([]uint32, int, *Metrics, error) {
	if !a.IsDirected() {
		panic("core: SCC requires a directed graph")
	}
	opt = opt.Normalized()
	met := NewMetrics(opt, "scc")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	comp := make([]uint32, n)
	parallel.Fill(comp, graph.None)
	if n == 0 {
		return comp, 0, met, cl.Poll()
	}
	// Forward searches and trimming's out-test range over out-lists,
	// backward ones over in-lists (the representation's cached transpose).
	out, in := graph.ScanOut(a), graph.ScanIn(a)
	sub := make([]uint64, n) // subproblem id; refined every round
	// Labels in propagate's complemented encoding: freshly made, every
	// vertex is unreached, and only the survivors of a round are cleared.
	fwd := make([]atomic.Uint32, n)
	bwd := make([]atomic.Uint32, n)
	vgc := &localSearch{slots: 1, met: met, cl: cl} // one operator for every search of the run

	// The unsettled vertices, in ascending id order for the whole run.
	live := parallel.PackIndex(n, func(int) bool { return true })

	// Trimming: peel vertices with no live in- or out-neighbor (their SCC
	// is a singleton). Each pass exposes new trimmable vertices. A pass
	// scans each list once into trim, then applies it, so every test sees
	// the comp of the pass before (Pack would run a predicate twice).
	trim := make([]bool, len(live))
	for t := 0; t < trimRounds && len(live) > 0; t++ {
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			trim[i] = !hasLiveNeighbor(out.Neighbors(v, out.Scratch()), comp, sub, v) ||
				!hasLiveNeighbor(in.Neighbors(v, in.Scratch()), comp, sub, v)
		})
		kept := parallel.Pack(live, func(i int) bool { return !trim[i] })
		if len(kept) == len(live) {
			break
		}
		parallel.For(len(live), 0, func(i int) {
			if v := live[i]; trim[i] {
				comp[v] = v
				// Label 0 in both directions: the searches' label compare
				// then stops every arc into v before the filter loads comp.
				fwd[v].Store(^uint32(0))
				bwd[v].Store(^uint32(0))
			}
		})
		live = kept
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
		pivots := pickPivots(live, min(pivotTarget, len(live)), seed)

		for _, d := range [2]struct {
			sc    *graph.Scanner
			label []atomic.Uint32
		}{{out, fwd}, {in, bwd}} {
			for i, p := range pivots { // a pivot's own label is its pivot index
				d.label[p].Store(^uint32(i))
			}
			if err := propagate(vgc, d.sc, d.label, pivots, comp, sub, opt.tau()); err != nil {
				return nil, 0, met, err
			}
		}

		// Settle where fwd label == bwd label == some pivot index; refine
		// the subproblems of the survivors by their label pair and clear
		// their labels for the next round. A settled vertex keeps its
		// labels: no search follows an arc into it, and nothing reads them.
		parallel.For(len(live), 0, func(i int) {
			v := live[i]
			fl, bl := ^fwd[v].Load(), ^bwd[v].Load()
			if fl != graph.None && fl == bl {
				comp[v] = pivots[fl]
			} else {
				sub[v] = refineHash(sub[v], fl, bl)
				fwd[v].Store(0)
				bwd[v].Store(0)
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

// pickPivots returns the k vertices of live with the smallest
// pivotHash(seed, ·), in hash order: the first k of live sorted by the
// hash, which is a bijection, so the set and its order are unique. It
// costs O(|live|) and leaves live as it is. 1 <= k <= len(live).
func pickPivots(live []uint32, k int, seed uint64) []uint32 {
	if k == 1 {
		type hv struct {
			h uint64
			v uint32
		}
		first := hv{pivotHash(seed, live[0]), live[0]}
		best := parallel.Reduce(len(live), 0, first, func(i int) hv {
			return hv{pivotHash(seed, live[i]), live[i]}
		}, func(a, b hv) hv {
			if b.h < a.h {
				return b
			}
			return a
		})
		return []uint32{best.v}
	}
	// Keep the vertices hashing into the lowest 2k/|live| of the range,
	// about 2k of them, doubling the cut until at least k pass; sort only
	// those.
	cut := ^uint64(0)
	if 2*k < len(live) {
		cut = ^uint64(0) / uint64(len(live)) * uint64(2*k)
	}
	for {
		cand := parallel.Pack(live, func(i int) bool { return pivotHash(seed, live[i]) <= cut })
		if len(cand) >= k {
			parallel.SortFunc(cand, func(a, b uint32) bool {
				return pivotHash(seed, a) < pivotHash(seed, b)
			})
			return cand[:k]
		}
		if cut > ^uint64(0)>>1 {
			cut = ^uint64(0)
		} else {
			cut = cut<<1 | 1
		}
	}
}

// hasLiveNeighbor reports whether nbrs, v's list in one direction, holds
// an unsettled vertex of v's subproblem other than v.
func hasLiveNeighbor(nbrs []uint32, comp []uint32, sub []uint64, v uint32) bool {
	sv := sub[v]
	for _, w := range nbrs {
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
