// Package conn provides the BFS-free parallel connectivity substrate used
// by FAST-BCC and Tarjan–Vishkin: a lock-free concurrent union–find, whole-
// graph connected components, and spanning forests (a tree edge is recorded
// exactly when its union wins).
package conn

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// UnionFind is a lock-free concurrent disjoint-set structure. Roots are
// linked by id order (larger root under smaller) with CAS, so concurrent
// unions converge without locks; finds compress paths with benign atomic
// writes.
type UnionFind struct {
	parent []atomic.Uint32
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]atomic.Uint32, n)}
	parallel.For(n, 0, func(i int) { uf.parent[i].Store(uint32(i)) })
	return uf
}

// Find returns the current root of v, halving the path along the way.
func (uf *UnionFind) Find(v uint32) uint32 {
	for {
		p := uf.parent[v].Load()
		if p == v {
			return v
		}
		gp := uf.parent[p].Load()
		if gp == p {
			return p
		}
		// Path halving; racing writes only ever re-point to an ancestor.
		uf.parent[v].CompareAndSwap(p, gp)
		v = gp
	}
}

// Union merges the sets of a and b. It returns true iff this call performed
// the merge (the sets were distinct and this CAS won).
func (uf *UnionFind) Union(a, b uint32) bool {
	_, won := uf.link(a, b)
	return won
}

// link is Union that also names the root it re-pointed. A root loses at
// most one link — afterwards it is no longer a root — so the loser is a
// slot no other winning call can name: the property spanning-forest
// construction relies on.
func (uf *UnionFind) link(a, b uint32) (loser uint32, won bool) {
	for {
		ra, rb := uf.Find(a), uf.Find(b)
		if ra == rb {
			return 0, false
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Link the larger root under the smaller.
		if uf.parent[rb].CompareAndSwap(rb, ra) {
			return rb, true
		}
	}
}

// Connected reports whether a and b are currently in the same set.
func (uf *UnionFind) Connected(a, b uint32) bool {
	for {
		ra, rb := uf.Find(a), uf.Find(b)
		if ra == rb {
			return true
		}
		// Re-check stability: if ra is still a root, the answer is firm.
		if uf.parent[ra].Load() == ra {
			return false
		}
	}
}

// forEachForwardEdge applies visit to every undirected edge {u, v} with
// u < v, fully in parallel. It is the shared edge-scan of Components and
// SpanningForest. Chunked so the graph.Scanner's decode scratch is
// allocated per chunk, not per vertex.
func forEachForwardEdge(a graph.Adjacency, visit func(u, v uint32)) {
	sc := graph.ScanOut(a)
	parallel.ForRange(a.NumVertices(), 64, func(lo, hi int) {
		nbuf := sc.Scratch()
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			for _, v := range sc.Neighbors(u, nbuf) {
				if u < v { // each undirected edge once
					visit(u, v)
				}
			}
		}
	})
}

// Components returns, for every vertex of g, the minimum vertex id of its
// connected component (a canonical labeling) together with the component
// count. Edges are processed fully in parallel; no BFS, no rounds — the
// point of the FAST-BCC design. Every graph.Adjacency representation is
// accepted.
func Components(a graph.Adjacency) ([]uint32, int) {
	if a.IsDirected() {
		panic("conn: Components requires an undirected graph")
	}
	n := a.NumVertices()
	uf := NewUnionFind(n)
	forEachForwardEdge(a, func(u, v uint32) { uf.Union(u, v) })
	labels := make([]uint32, n)
	parallel.For(n, 0, func(i int) { labels[i] = uf.Find(uint32(i)) })
	// Roots are minima because unions always link larger roots under
	// smaller ones.
	count := parallel.Count(n, func(i int) bool { return labels[i] == uint32(i) })
	return labels, count
}

// SpanningForest returns a spanning forest of g as a list of tree edges
// (n - #components of them) plus the component labeling. Which forest is
// produced depends on the parallel schedule; all are valid. Every
// graph.Adjacency representation is accepted.
func SpanningForest(a graph.Adjacency) ([]graph.Edge, []uint32, int) {
	if a.IsDirected() {
		panic("conn: SpanningForest requires an undirected graph")
	}
	n := a.NumVertices()
	uf := NewUnionFind(n)
	// A tree edge is stored at the root its union re-pointed, so recording
	// it shares no counter; the used slots are the non-roots.
	slots := make([]graph.Edge, n)
	forEachForwardEdge(a, func(u, v uint32) {
		if loser, won := uf.link(u, v); won {
			slots[loser] = graph.Edge{U: u, V: v}
		}
	})
	labels := make([]uint32, n)
	parallel.For(n, 0, func(i int) { labels[i] = uf.Find(uint32(i)) })
	treeEdges := parallel.Pack(slots, func(v int) bool { return labels[v] != uint32(v) })
	return treeEdges, labels, n - len(treeEdges)
}
