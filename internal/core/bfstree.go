package core

import (
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// BFSTree computes hop distances from src and a BFS tree: parent[v] is an
// in-neighbor of v one hop closer to src, so walking parents realizes a
// shortest hop path (graph.None for src and unreached vertices).
//
// Distances come from BFS, bottom-up rounds included; parents are derived
// afterwards in one parallel pass over the in-edges, as SSSPTree does.
// Every reached vertex other than src has an in-neighbor u with
// dist[u] + 1 = dist[v], and any such u is a valid parent, so the
// derivation cannot fail. The in-edges come from graph.ScanIn: on a
// directed graph BFSTree builds (or reuses) the cached transpose even
// when DisableDirectionOpt keeps BFS itself push-only. Like BFS it rejects
// a source at or past the vertex count.
func BFSTree(a graph.Adjacency, src uint32, opt Options) (dist []uint32, parent []uint32, met *Metrics, err error) {
	dist, met, err = BFS(a, src, opt)
	if err != nil {
		return nil, nil, met, err
	}
	// The derivation phase gets its own context binding (BFS's closed with
	// its return); distances are complete here, so cancellation only skips
	// the parent pass.
	cl := NewCanceler(opt, met)
	defer cl.Close()
	if err := cl.Poll(); err != nil {
		return nil, nil, met, err
	}
	n := a.NumVertices()
	parent = make([]uint32, n)
	in := graph.ScanIn(a)
	parallel.ForRangeCancel(cl.Token(), n, 64, func(lo, hi int) {
		nbuf := in.Scratch()
	vertices:
		for vi := lo; vi < hi; vi++ {
			v := uint32(vi)
			parent[v] = graph.None
			if v == src || dist[v] == graph.InfDist {
				continue
			}
			for _, u := range in.Neighbors(v, nbuf) {
				if dist[u] == dist[v]-1 {
					parent[v] = u
					continue vertices
				}
			}
			panic("core: BFSTree: no in-neighbor one hop closer (distances inconsistent)")
		}
	})
	if err := cl.Poll(); err != nil {
		return nil, nil, met, err
	}
	return dist, parent, met, nil
}
