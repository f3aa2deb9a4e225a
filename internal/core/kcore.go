package core

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// KCore computes the coreness of every vertex by parallel peeling with
// VGC — one of the extensions the paper's conclusion names ("k-core and
// other peeling algorithms"). A directed graph is peeled as its symmetric
// closure, g.Symmetrized() (see peelList), which is never built.
//
// For k = 0, 1, 2, ... the algorithm peels all vertices whose residual
// degree is <= k. Peeling is frontier-based and has the same
// large-diameter pathology as BFS: removing one vertex can trigger a long
// *chain* of removals (think of a path hanging off a clique), which a
// level-synchronous peeler pays one global round per link for. The VGC
// local search follows such chains in-task, up to τ edges, before touching
// the shared frontier.
//
// Returns the coreness array, the degeneracy (max coreness), and metrics.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation it returns
// (nil, 0, partial Metrics, ErrCanceled/ErrDeadline).
func KCore(a graph.Adjacency, opt Options) ([]uint32, int, *Metrics, error) {
	opt = opt.Normalized()
	met := NewMetrics(opt, "kcore")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	core := make([]uint32, n)
	if n == 0 {
		return core, 0, met, cl.Poll()
	}
	tau := opt.tau()
	out, in := peelScanners(a)
	vgc := &localSearch{slots: 1, met: met, cl: cl}

	deg := make([]atomic.Int64, n)
	claimed := make([]atomic.Uint32, n) // coreness+1 when claimed, 0 live
	if in == nil {
		// Undirected: the stored list is the peeled one, and DegreeOf
		// counts it without decoding (offsets, one varint on .pz, offset
		// arithmetic on an Overlay).
		parallel.For(n, 0, func(v int) { deg[v].Store(int64(a.DegreeOf(uint32(v)))) })
	} else {
		parallel.ForRange(n, 0, func(lo, hi int) {
			obuf, ibuf, mbuf := peelScratch(out, in)
			for v := lo; v < hi; v++ {
				var nbrs []uint32
				nbrs, mbuf = peelList(out, in, uint32(v), obuf, ibuf, mbuf)
				deg[v].Store(int64(len(nbrs)))
			}
		})
	}

	live := parallel.PackIndex(n, func(int) bool { return true })

	for k := int64(0); len(live) > 0; k++ {
		// Phase boundary: a canceled peel leaves residual degrees and
		// claims half-applied; stop before seeding the next level.
		if err := cl.Poll(); err != nil {
			return nil, 0, met, err
		}
		met.AddPhase()
		// Seed this level: all live vertices whose degree has fallen to
		// <= k. The claim CAS makes seeding race-free against peeling.
		f := parallel.Collect(nil, len(live), 0, func(lo, hi int, next []uint32) []uint32 {
			for _, v := range live[lo:hi] {
				if deg[v].Load() <= k && claimed[v].CompareAndSwap(0, uint32(k)+1) {
					next = append(next, v)
				}
			}
			return next
		})
		for len(f) > 0 {
			if err := cl.Poll(); err != nil {
				return nil, 0, met, err
			}
			met.Round(len(f))
			vgc.round(f, tau, nil, func(u uint32, s *scratch) int {
				var nbrs []uint32
				nbrs, s.mbuf = peelList(out, in, u, s.nbuf, s.wbuf, s.mbuf)
				for _, w := range nbrs {
					if claimed[w].Load() != 0 {
						continue
					}
					// One decrement per removed edge endpoint.
					nd := deg[w].Add(-1)
					if nd <= k && claimed[w].CompareAndSwap(0, uint32(k)+1) {
						s.queue = append(s.queue, w)
					}
				}
				return len(nbrs)
			}, spillNext)
			f = vgc.next(0)
		}
		live = parallel.Pack(live, func(i int) bool { return claimed[live[i]].Load() == 0 })
	}
	// Final check before materializing; see BFS.
	if err := cl.Poll(); err != nil {
		return nil, 0, met, err
	}
	maxCore := int64(0)
	parallel.For(n, 0, func(v int) { core[v] = claimed[v].Load() - 1 })
	for v := 0; v < n; v++ {
		if int64(core[v]) > maxCore {
			maxCore = int64(core[v])
		}
	}
	return core, int(maxCore), met, nil
}

// peelScanners returns the scanners the peel walks: a's out-lists alone
// when a is undirected, and its out- and in-lists when it is directed.
func peelScanners(a graph.Adjacency) (out, in *graph.Scanner) {
	if a.IsDirected() {
		return graph.ScanOut(a), graph.ScanIn(a)
	}
	return graph.ScanOut(a), nil
}

// peelScratch returns buffers for peelList outside a local search (the
// directed degree pass's chunks, DensestSubgraph): the peel's own come
// from localSearch's scratch. It inlines, so they live in the caller's
// frame; the union buffer is made only for directed input.
func peelScratch(out, in *graph.Scanner) (obuf, ibuf, mbuf []uint32) {
	if in == nil {
		return out.Scratch(), nil, nil
	}
	return out.Scratch(), in.Scratch(), make([]uint32, 0, 256)
}

// peelList returns u's list in the graph the peel walks, and mbuf for the
// caller to keep. Undirected, that is u's out-list as stored. Directed, it
// is u's list in the symmetric closure: the sorted union of its out- and
// in-lists, u itself and repeats dropped (graph.AppendUnion, the rules of
// Graph.Symmetrized), merged into mbuf, which is returned grown so a chunk
// pays for a hub's list once.
func peelList(out, in *graph.Scanner, u uint32, obuf, ibuf, mbuf []uint32) ([]uint32, []uint32) {
	nbrs := out.Neighbors(u, obuf)
	if in == nil {
		return nbrs, mbuf
	}
	mbuf = graph.AppendUnion(mbuf, u, nbrs, in.Neighbors(u, ibuf))
	return mbuf, mbuf
}
