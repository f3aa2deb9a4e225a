// Package euler roots a spanning forest without BFS or DFS: it builds the
// Euler circuit of each tree from arc-adjacency, breaks it at a canonical
// root, and list-ranks the circuit. From arc ranks it derives, for every
// vertex, its parent, preorder number, and subtree size — the ingredients
// FAST-BCC and Tarjan–Vishkin consume.
//
// Ranking is by sampling (rank): the list heads plus a fixed 1-in-64 hash
// class of arcs split every circuit into segments that are walked
// independently, only the ≈ nArcs/64 sampled arcs are ranked by pointer
// jumping, and a second walk writes the positions. That is O(nArcs) work
// and two passes of dependent reads; pointer jumping over the whole
// circuit is ⌈log₂ nArcs⌉ passes, which on a road-sized forest (10⁶ arcs,
// out of cache) was over a third of a BCC.
package euler

import (
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// Forest is a rooted spanning forest with Euler-tour-derived preorder
// numbering. Preorder numbers are globally unique in [0, N): each
// component's vertices occupy a contiguous block.
type Forest struct {
	N      int
	Parent []uint32 // parent vertex, graph.None for roots
	Pre    []uint32 // preorder number
	Size   []uint32 // subtree size
	Comp   []uint32 // component label (minimum vertex id in component)
	Roots  []uint32 // one root per component (the minimum id), ascending
}

// First returns the start of v's preorder interval.
func (f *Forest) First(v uint32) uint32 { return f.Pre[v] }

// Last returns the end (inclusive) of v's preorder interval.
func (f *Forest) Last(v uint32) uint32 { return f.Pre[v] + f.Size[v] - 1 }

// IsAncestor reports whether a is an ancestor of v (inclusive).
func (f *Forest) IsAncestor(a, v uint32) bool {
	return f.Pre[a] <= f.Pre[v] && f.Pre[v] <= f.Last(a)
}

const nilArc = ^uint32(0)

// Build roots the forest given by treeEdges over n vertices. treeEdges must
// be acyclic (a forest); vertices not covered by any edge become singleton
// components. comp labels every vertex with the minimum vertex id of its
// tree — the labels conn.SpanningForest returns with the edges — and
// becomes the Forest's Comp.
func Build(n int, treeEdges []graph.Edge, comp []uint32) *Forest {
	f := &Forest{
		N:      n,
		Parent: make([]uint32, n),
		Pre:    make([]uint32, n),
		Size:   make([]uint32, n),
		Comp:   comp,
	}
	if n == 0 {
		return f
	}
	nt := len(treeEdges)
	nArcs := 2 * nt

	f.Roots = parallel.PackIndex(n, func(v int) bool { return comp[v] == uint32(v) })
	nc := len(f.Roots)
	// Component ordering: dense index per component in ascending label
	// order.
	compIdx := make([]uint32, n) // component label -> dense index
	parallel.For(nc, 0, func(i int) { compIdx[f.Roots[i]] = uint32(i) })
	succ, heads, tails := circuit(treeEdges, comp, f.Roots, compIdx)
	pos, _ := rank(succ, heads) // pos(a) = number of arcs before a on its tour

	// Vertex- and tour-base offsets per component.
	compSize := make([]int64, nc) // vertices per component
	tourLen := make([]int64, nc)  // arcs per component tour
	parallel.For(nc, 0, func(i int) {
		if tails[i] != nilArc {
			tourLen[i] = int64(pos[tails[i]]) + 1
		}
		compSize[i] = tourLen[i]/2 + 1
	})
	vertexBase := make([]int64, nc)
	parallel.Copy(vertexBase, compSize)
	parallel.Scan(vertexBase)
	tourBase := make([]int64, nc)
	parallel.Copy(tourBase, tourLen)
	parallel.Scan(tourBase)

	// Parent / subtree size from arc positions: for edge (u,v), the
	// direction with the smaller tour position is the "down" arc.
	down := make([]uint32, nArcs) // per global tour slot: 1 if a down arc
	gpos := func(a uint32) int64 {
		return tourBase[compIdx[f.Comp[arcSrc(treeEdges, a)]]] + int64(pos[a])
	}
	parallel.For(nt, 0, func(i int) {
		a := uint32(2 * i) // U->V
		t := a ^ 1         // V->U
		e := treeEdges[i]
		var downArc uint32
		var child uint32
		if pos[a] < pos[t] {
			downArc, child = a, e.V
		} else {
			downArc, child = t, e.U
		}
		f.Parent[child] = arcParentOf(e, child)
		f.Size[child] = (maxU32(pos[a], pos[t]) - minU32(pos[a], pos[t]) + 1) / 2
		down[gpos(downArc)] = 1
	})

	// Preorder: inclusive scan of down-arc indicators along the global
	// tour; pre(child) = vertexBase + #down arcs at or before its down
	// arc; pre(root) = vertexBase.
	downRank := make([]uint32, nArcs)
	parallel.Copy(downRank, down)
	parallel.ScanInclusive(downRank)
	parallel.For(n, 0, func(vi int) {
		v := uint32(vi)
		ci := compIdx[f.Comp[v]]
		if f.Comp[v] == v {
			// Root (or isolated vertex).
			f.Parent[v] = graph.None
			f.Pre[v] = uint32(vertexBase[ci])
			f.Size[v] = uint32(compSize[ci])
		}
	})
	parallel.For(nt, 0, func(i int) {
		e := treeEdges[i]
		a := uint32(2 * i)
		t := a ^ 1
		downArc, child := a, e.V
		if pos[t] < pos[a] {
			downArc, child = t, e.U
		}
		ci := compIdx[f.Comp[child]]
		base := tourBase[ci]
		var before uint32
		if base == 0 {
			before = downRank[gpos(downArc)]
		} else {
			before = downRank[gpos(downArc)] - downRank[base-1]
		}
		f.Pre[child] = uint32(vertexBase[ci]) + before
	})
	return f
}

// arcSrc returns the source of arc a: arc 2i is U->V of edge i, arc 2i+1
// its twin V->U.
func arcSrc(treeEdges []graph.Edge, a uint32) uint32 {
	if a&1 == 0 {
		return treeEdges[a/2].U
	}
	return treeEdges[a/2].V
}

// circuit threads the Euler circuit of every tree through its arcs and
// breaks it at the tree's root: succ[a] is the arc after a, nilArc after
// the last. heads[i] and tails[i] are the first and last arc of the tour
// of the tree rooted at roots[i] (compIdx maps a root to its i), nilArc
// for a tree without edges.
//
// Each vertex's arcs are threaded into a list by one atomic swap per arc:
// the arc takes the list head's place and points at the previous head.
// The order within a list is the schedule's, and any order is a valid
// rotation: the circuit visits each vertex's arcs in its list order.
func circuit(treeEdges []graph.Edge, comp, roots, compIdx []uint32) (succ, heads, tails []uint32) {
	n, nArcs := len(comp), 2*len(treeEdges)
	head := make([]uint32, n) // first arc out of each vertex
	nxt := make([]uint32, nArcs)
	parallel.Fill(head, nilArc)
	parallel.For(nArcs, 0, func(ai int) {
		a := uint32(ai)
		nxt[a] = atomic.SwapUint32(&head[arcSrc(treeEdges, a)], a)
	})

	// succ(a) = the arc after twin(a) among the arcs leaving head(a)
	// (= src(twin(a))), cyclically — except where that wraps around to the
	// first outgoing arc of a root: that arc heads the tour, and a, the
	// twin of the root's last outgoing arc, ends it.
	succ = make([]uint32, nArcs)
	heads = make([]uint32, len(roots))
	tails = make([]uint32, len(roots))
	parallel.For(len(roots), 0, func(i int) { heads[i], tails[i] = head[roots[i]], nilArc })
	parallel.For(nArcs, 0, func(ai int) {
		a := uint32(ai)
		t := a ^ 1
		next := nxt[t]
		if next == nilArc {
			s := arcSrc(treeEdges, t)
			if comp[s] == s {
				tails[compIdx[s]] = a
			} else {
				next = head[s]
			}
		}
		succ[a] = next
	})
	return succ, heads, tails
}

// sampleGap is the reciprocal of the sampling rate: one arc in 64 is a
// splitter. A constant, not a tunable — at 64 the reduced list is small
// enough that ranking it costs a millisecond or two on 10⁶ arcs, and the
// segments are short enough that a few thousand of them balance across
// any worker count.
const sampleGap = 64

// sampled reports whether arc a is in the splitter hash class. The class
// is a hash of the arc id, not the id's low bits: ids follow the order the
// tree edges were found in, and on a path given in order the low bits
// would sample only one direction of the tour.
func sampled(a uint32) bool {
	a ^= a >> 16
	a *= 0x7feb352d
	a ^= a >> 15
	a *= 0x846ca68b
	a ^= a >> 16
	return a%sampleGap == 0
}

// rank list-ranks the nilArc-terminated lists that succ threads through
// the arcs and that start at heads (a nilArc head is an empty list):
// pos[a] is the number of arcs before a on its list. reads counts the succ
// (and reduced-list link) dereferences made, the work measure
// TestRankWorkBound pins.
//
// Walks start at every sampled arc and at every head, and stop at the
// next sampled arc or the tail, so each arc is stepped over once per
// walk. Heads must start walks — a list shorter than the sample gap may
// hold no sampled arc at all — but need no ranking: a head's position is
// 0. So the reduced list holds the sampled arcs only, however many lists
// there are. It is ranked by pointer jumping along predecessor links,
// each weighted with the length of the segment it spans, which leaves in
// w the position of every sampled arc; its ⌈log₂⌉ factor applies to
// nArcs/64 elements, and it keeps the span polylogarithmic where one
// sequential pass over the sampled arcs of a long path would not.
func rank(succ, heads []uint32) (pos []uint32, reads int64) {
	nArcs := len(succ)
	pos = make([]uint32, nArcs)
	starts := parallel.PackIndex(nArcs, func(a int) bool { return sampled(uint32(a)) })
	ns := len(starts)
	starts = append(starts, parallel.Pack(heads, func(i int) bool {
		return heads[i] != nilArc && !sampled(heads[i])
	})...)
	// Until the last walk overwrites it, pos holds the reduced-list index
	// of each sampled arc.
	parallel.For(ns, 0, func(i int) { pos[starts[i]] = uint32(i) })

	var total atomic.Int64
	link := make([]uint32, ns) // previous sampled arc on the list, by index
	w := make([]uint32, ns)    // arcs from link[i] (or from the head) to i
	parallel.Fill(link, nilArc)
	parallel.ForRange(len(starts), 0, func(lo, hi int) {
		steps := 0
		for i := lo; i < hi; i++ {
			a, l := starts[i], uint32(0)
			for {
				a = succ[a]
				l++
				if a == nilArc || sampled(a) {
					break
				}
			}
			steps += int(l)
			if a == nilArc {
				continue
			}
			j := pos[a]
			w[j] = l
			if i < ns {
				link[j] = uint32(i)
			}
		}
		total.Add(int64(steps))
	})

	nlink := make([]uint32, ns)
	nw := make([]uint32, ns)
	for span := 1; span < ns; span *= 2 {
		parallel.For(ns, 0, func(i int) {
			p := link[i]
			if p == nilArc {
				nlink[i], nw[i] = nilArc, w[i]
				return
			}
			nlink[i], nw[i] = link[p], w[i]+w[p]
		})
		link, nlink = nlink, link
		w, nw = nw, w
		total.Add(int64(ns))
	}

	parallel.ForRange(len(starts), 0, func(lo, hi int) {
		steps := 0
		for i := lo; i < hi; i++ {
			a, at := starts[i], uint32(0)
			if i < ns {
				at = w[i]
			}
			first := at
			for {
				pos[a] = at
				at++
				a = succ[a]
				if a == nilArc || sampled(a) {
					break
				}
			}
			steps += int(at - first)
		}
		total.Add(int64(steps))
	})
	return pos, total.Load()
}

func arcParentOf(e graph.Edge, child uint32) uint32 {
	if child == e.V {
		return e.U
	}
	return e.V
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
