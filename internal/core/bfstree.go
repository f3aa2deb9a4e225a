package core

import (
	"math"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// BFSTree computes hop distances and a BFS tree (a parent per reached
// vertex realizing a shortest hop path) with the VGC BFS.
//
// Distance and parent are packed into one uint64 (dist<<32 | parent) so a
// single CAS updates both atomically — otherwise a racing relaxation could
// pair one writer's distance with another's parent.
//
// Unlike BFS, BFSTree runs purely top-down (a bottom-up round would have
// to synthesize parents for repaired distances); prefer BFS when only
// distances are needed on low-diameter graphs. It shares BFS's round
// driver and, like it, rejects a source at or past the vertex count.
func BFSTree(a graph.Adjacency, src uint32, opt Options) (dist []uint32, parent []uint32, met *Metrics, err error) {
	opt = opt.Normalized()
	defer attachRuntimeTracer(opt)()
	met = NewMetrics(opt, "bfs-tree")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	if err := checkVertex("source", src, n); err != nil {
		return nil, nil, met, err
	}
	dist = make([]uint32, n)
	parent = make([]uint32, n)
	parallel.For(n, 0, func(i int) {
		dist[i] = graph.InfDist
		parent[i] = graph.None
	})
	tau := opt.tau()
	nBags := 2*tau + 4 // same ring as BFS
	st := &bfsState{
		n:        n,
		tau:      tau,
		nBags:    nBags,
		denseCut: math.MaxInt64, // top-down only: bfsDrive never pulls
		fr:       newFrontierSet(n, nBags, opt.DisableHashBag, opt.Tracer),
		met:      met,
		cl:       cl,
	}
	fr := st.fr

	const infPacked = ^uint64(0)
	state := make([]atomic.Uint64, n)
	parallel.For(n, 0, func(i int) { state[i].Store(infPacked) })
	pack := func(d, p uint32) uint64 { return uint64(d)<<32 | uint64(p) }
	distOf := func(s uint64) uint32 { return uint32(s >> 32) }

	out := graph.ScanOut(a)
	// BFS's push body over the packed state: the CAS installs distance
	// and parent together.
	push := func(f []uint32, bucketOf []int) {
		parallel.ForRangeCancel(cl.Token(), len(f), 1, func(lo, hi int) {
			var qbuf [64]uint32
			queue := qbuf[:0]
			nbuf := out.Scratch()
			var edgeCount int64
			for i := lo; i < hi; i++ {
				v := f[i]
				if distOf(state[v].Load()) != uint32(bucketOf[i]) {
					continue
				}
				queue = append(queue[:0], v)
				budget := tau
				for head := 0; head < len(queue); head++ {
					u := queue[head]
					du := distOf(state[u].Load())
					nd := du + 1
					nbrs := out.Neighbors(u, nbuf)
					for _, w := range nbrs {
						edgeCount++
						for {
							old := state[w].Load()
							if nd >= distOf(old) {
								break
							}
							if state[w].CompareAndSwap(old, pack(nd, u)) {
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
						for _, w := range queue[head+1:] {
							fr.insert(int(distOf(state[w].Load())), w)
							st.pending.Add(1)
						}
						queue = queue[:head+1]
					}
				}
			}
			met.AddEdges(edgeCount)
		})
	}

	state[src].Store(pack(0, src))
	fr.insert(0, src)
	st.pending.Store(1)
	if err := bfsDrive(st, nil, push); err != nil {
		return nil, nil, met, err
	}
	// Final check before materializing (see BFS).
	if perr := cl.Poll(); perr != nil {
		return nil, nil, met, perr
	}
	parallel.For(n, 0, func(i int) {
		s := state[i].Load()
		if s != infPacked {
			dist[i] = distOf(s)
			parent[i] = uint32(s)
		}
	})
	parent[src] = graph.None
	return dist, parent, met, nil
}
