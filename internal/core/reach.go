package core

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// Reachable marks every vertex reachable from any of srcs. This is the
// paper's §2.1 primitive in isolation: a reachability search needs no BFS
// order, so the VGC local search visits vertices in arbitrary multi-hop
// order. It is propagate's single-label, unfiltered case: every source
// carries label 0 and a vertex is reached once its stored word is not 0.
//
// Every graph.Adjacency representation is accepted. A source at or past
// the vertex count is an error.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation it returns
// (nil, partial Metrics, ErrCanceled/ErrDeadline).
func Reachable(a graph.Adjacency, srcs []uint32, opt Options) ([]bool, *Metrics, error) {
	opt = opt.Normalized()
	defer attachRuntimeTracer(opt)()
	met := NewMetrics(opt, "reach")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	for _, s := range srcs {
		if err := checkVertex("source", s, n); err != nil {
			return nil, met, err
		}
	}
	label := make([]atomic.Uint32, n) // zero: unreached, see propagate
	var f []uint32
	for _, s := range srcs {
		// Label 0, stored complemented; a duplicate source is scanned once.
		if label[s].Swap(^uint32(0)) == 0 {
			f = append(f, s)
		}
	}
	vgc := &localSearch{slots: 1, met: met, cl: cl}
	if err := propagate(vgc, graph.ScanOut(a), label, f, nil, nil, opt.tau()); err != nil {
		return nil, met, err
	}
	out := make([]bool, n)
	parallel.For(n, 0, func(i int) { out[i] = label[i].Load() != 0 })
	return out, met, nil
}

// propagate is the VGC reachability search behind Reachable and both
// directions of SCC: from the caller's seeds f, whose labels it has set,
// it runs round after round, and from every frontier vertex a local
// search of up to tau arcs along sc that write-mins the vertex's label
// into its neighbors, queueing each neighbor whose label dropped (locally
// while the budget lasts, into vgc's next frontier after). f is only
// read. On return vgc's lists are empty and it can run the next search.
//
// label[v] stores ^l for label l, and 0 means unreached: a write-min on l
// is a write-max on the stored word, and a freshly made array needs no
// fill. Label None would store 0, so it cannot be a label.
//
// A non-nil comp confines the search to subproblems: an arc u→w is
// followed only if w is unsettled (comp[w] == None) and sub[w] == sub[u].
// The filter is two slices the visit reads behind a loop-invariant bool,
// not a func: a closure called per arc does not inline into the visit
// closure (DESIGN.md §2.9). It is asked only about an arc that would
// lower w's label, so most arcs cost one load and one compare either way.
//
// The error is the run's cancellation, polled before every round and once
// after the last: a canceled round skips spills, so the frontier can
// drain with labels incomplete, and the callers read labels right after.
func propagate(vgc *localSearch, sc *graph.Scanner, label []atomic.Uint32, f []uint32,
	comp []uint32, sub []uint64, tau int) error {
	filtered := comp != nil
	for len(f) > 0 {
		if err := vgc.cl.Poll(); err != nil {
			return err
		}
		vgc.met.Round(len(f))
		// The visit closure sits directly in the loop (DESIGN.md §2.9,
		// trap 3). The FIFO worklist propagates labels breadth-first within
		// a task, minimizing claim-then-reclaim churn between labels.
		vgc.round(f, tau, nil, func(u uint32, s *scratch) int {
			lu := label[u].Load()
			var su uint64
			if filtered {
				su = sub[u]
			}
			nbrs := sc.Neighbors(u, s.nbuf)
			for _, w := range nbrs {
				for {
					old := label[w].Load()
					if lu <= old { // stored words: w's label is <= u's
						break
					}
					if filtered && (comp[w] != graph.None || sub[w] != su) {
						break // settled or different subproblem
					}
					if label[w].CompareAndSwap(old, lu) {
						s.queue = append(s.queue, w)
						break
					}
				}
			}
			return len(nbrs)
		}, spillNext)
		f = vgc.next(0)
	}
	return vgc.cl.Poll()
}
