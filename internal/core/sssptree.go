package core

import (
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// SSSPTree computes shortest-path distances from src and a shortest-path
// tree: parent[v] is a predecessor of v on some shortest src→v path
// (graph.None for src and unreachable vertices).
//
// Distances come from SSSP; parents are derived afterwards in one parallel
// pass over the in-edges — every reached vertex has a tight predecessor
// (dist[u] + w(u,v) = dist[v]) by the optimality conditions, so the
// derivation cannot fail. Deriving parents after convergence avoids
// widening the relaxation CAS to a double-word (distance, parent) pair.
func SSSPTree(a graph.Adjacency, src uint32, policy StepPolicy, opt Options) (dist []uint64, parent []uint32, met *Metrics, err error) {
	dist, met, err = SSSP(a, src, policy, opt)
	if err != nil {
		return nil, nil, met, err
	}
	// The derivation phase gets its own context binding (SSSP's closed with
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
		nbuf, wbuf := in.Scratch(), in.Scratch()
	vertices:
		for vi := lo; vi < hi; vi++ {
			v := uint32(vi)
			parent[v] = graph.None
			if v == src || dist[v] == InfWeight {
				continue
			}
			nbrs, wts := in.Arcs(v, nbuf, wbuf)
			for i, u := range nbrs {
				if dist[u] != InfWeight && dist[u]+uint64(wts[i]) == dist[v] {
					parent[v] = u
					continue vertices
				}
			}
			panic("core: SSSPTree: no tight predecessor (distances inconsistent)")
		}
	})
	if err := cl.Poll(); err != nil {
		return nil, nil, met, err
	}
	return dist, parent, met, nil
}

// PathTo reconstructs the path from the tree's root to v using a parent
// array from SSSPTree or BFSTree. Returns nil if v was unreachable
// (parent[v] == None and v has a parentless ancestor chain of length 0).
// The result starts at the root and ends at v.
func PathTo(parent []uint32, root, v uint32) []uint32 {
	if v != root && parent[v] == graph.None {
		return nil
	}
	var rev []uint32
	for u := v; ; u = parent[u] {
		rev = append(rev, u)
		if u == root {
			break
		}
		if parent[u] == graph.None || len(rev) > len(parent) {
			return nil // disconnected or corrupt parent array
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
