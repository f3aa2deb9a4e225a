package core

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/hashbag"
	"pasgal/internal/parallel"
)

// Reachable marks every vertex reachable from any of srcs. This is the
// paper's §2.1 primitive in isolation: a reachability search needs no BFS
// order, so the VGC local search visits vertices in arbitrary multi-hop
// order, each vertex claimed exactly once by a CAS.
//
// Every graph.Adjacency representation is accepted: the local search
// ranges over graph.Scanner's neighbor lists. A source at or past the
// vertex count is an error.
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
	out := make([]bool, n)
	if len(srcs) == 0 {
		return out, met, cl.Poll()
	}
	tau := opt.tau()
	visited := make([]atomic.Uint32, n)
	bag := hashbag.New(max(64, 2*len(srcs)))
	bag.SetTracer(opt.Tracer)
	for _, s := range srcs {
		if visited[s].CompareAndSwap(0, 1) {
			bag.Insert(s)
		}
	}
	sc := graph.ScanOut(a)
	for !bag.Empty() {
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		f := bag.Extract()
		met.Round(len(f))
		// Chunk closure directly in the loop, for the reason given in SSSP.
		parallel.ForRangeCancel(cl.Token(), len(f), 1, func(lo, hi int) {
			var qbuf [64]uint32
			queue := qbuf[:0]
			nbuf := sc.Scratch()
			var edgeCount int64
			for i := lo; i < hi; i++ {
				queue = append(queue[:0], f[i])
				budget := tau
				for head := 0; head < len(queue); head++ {
					nbrs := sc.Neighbors(queue[head], nbuf)
					for _, w := range nbrs {
						edgeCount++
						if visited[w].Load() == 0 && visited[w].CompareAndSwap(0, 1) {
							if budget > 0 {
								queue = append(queue, w)
							} else {
								bag.Insert(w)
							}
						}
					}
					budget -= len(nbrs)
					if budget <= 0 && head+1 < len(queue) {
						for _, w := range queue[head+1:] {
							bag.Insert(w)
						}
						queue = queue[:head+1]
					}
				}
			}
			met.AddEdges(edgeCount)
		})
	}
	// Final check before materializing; see BFS.
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	parallel.For(n, 0, func(i int) { out[i] = visited[i].Load() == 1 })
	return out, met, nil
}
