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

// The sampled union's two constants, fixed like euler's sampleGap:
// LinkK first arcs per vertex give a k-out sample whose largest set is,
// on any graph with a giant component, almost all of it; sampleSize
// vertices are enough to name that set's root. FAST-BCC's skeleton links
// the same LinkK arcs per vertex first.
const (
	LinkK      = 2
	sampleSize = 1024
)

// unite runs union over every undirected edge of a, doing the work only
// where it can change the answer (Afforest/ConnectIt-style sampling,
// Dhulipala–Hong–Shun): every vertex links its first LinkK arcs, then
// PluralityRoot names the largest set of that sample, and only vertices
// outside it scan the rest of their arcs. record, if non-nil, is called
// once for every union that wins, with the root it re-pointed.
//
// No edge is lost. Both arcs of {u, v} are in the graph, and sets only
// ever merge, so if neither u nor v linked the edge, each was in the
// giant's set when it was checked: u and v are connected anyway.
func unite(a graph.Adjacency, uf *UnionFind, record func(loser, u, v uint32)) {
	sc := graph.ScanOut(a)
	n := a.NumVertices()
	link := func(u uint32, nbrs []uint32) {
		for _, v := range nbrs {
			if loser, won := uf.link(u, v); won && record != nil {
				record(loser, u, v)
			}
		}
	}
	parallel.ForRange(n, 64, func(lo, hi int) {
		nbuf := sc.Scratch()
		for ui := lo; ui < hi; ui++ {
			nbrs := sc.Neighbors(uint32(ui), nbuf)
			link(uint32(ui), nbrs[:min(LinkK, len(nbrs))])
		}
	})
	r := uf.PluralityRoot()
	parallel.ForRange(n, 64, func(lo, hi int) {
		nbuf := sc.Scratch()
		giant := uf.Find(r) // r may have been linked under a smaller root since
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			if uf.Find(u) == giant {
				continue
			}
			if nbrs := sc.Neighbors(u, nbuf); len(nbrs) > LinkK {
				link(u, nbrs[LinkK:])
			}
		}
	})
}

// PluralityRoot returns the root held by the most of a fixed sample of
// sampleSize elements, spread by Fibonacci hashing (every element of a
// smaller set). It is a guess at the largest set's root, and a wrong guess
// costs work only: callers skip an element's remaining edges when it is
// already in this root's set, which is correct for any root.
func (uf *UnionFind) PluralityRoot() uint32 {
	n := uint64(len(uf.parent))
	votes := map[uint32]int{}
	best := uint32(0)
	for i := uint64(0); i < min(n, sampleSize); i++ {
		v := i
		if n > sampleSize {
			v = (i * 0x9e3779b97f4a7c15 >> 32) % n
		}
		r := uf.Find(uint32(v))
		if votes[r]++; votes[r] > votes[best] {
			best = r
		}
	}
	return best
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
	unite(a, uf, nil)
	labels := make([]uint32, n)
	parallel.For(n, 0, func(i int) { labels[i] = uf.Find(uint32(i)) })
	// Roots are minima because unions always link larger roots under
	// smaller ones.
	count := parallel.Count(n, func(i int) bool { return labels[i] == uint32(i) })
	return labels, count
}

// SpanningForest returns a spanning forest of g as a list of tree edges
// (n - #components of them) plus the component labeling, the minimum
// vertex id of each component. Which forest is produced depends on the
// parallel schedule; all are valid. Every graph.Adjacency representation
// is accepted.
func SpanningForest(a graph.Adjacency) ([]graph.Edge, []uint32, int) {
	if a.IsDirected() {
		panic("conn: SpanningForest requires an undirected graph")
	}
	n := a.NumVertices()
	uf := NewUnionFind(n)
	// A tree edge is stored at the root its union re-pointed, so recording
	// it shares no counter; the used slots are the non-roots.
	slots := make([]graph.Edge, n)
	unite(a, uf, func(loser, u, v uint32) { slots[loser] = graph.Edge{U: u, V: v} })
	labels := make([]uint32, n)
	parallel.For(n, 0, func(i int) { labels[i] = uf.Find(uint32(i)) })
	treeEdges := parallel.Pack(slots, func(v int) bool { return labels[v] != uint32(v) })
	return treeEdges, labels, n - len(treeEdges)
}
