// Package graph provides the compressed-sparse-row graph representation
// shared by every algorithm in the library, together with parallel builders
// (edge list -> CSR), transforms (transpose, symmetrize), and statistics
// (including the sampled diameter estimates reported in the paper's
// Table 1).
//
// Vertices are uint32 ids in [0, N). Edge weights, when present, are uint32
// and stored parallel to the adjacency array. Adjacency lists are sorted and
// deduplicated, and self-loops are dropped by the builders; several
// algorithms (biconnectivity in particular) rely on these invariants.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"pasgal/internal/parallel"
)

// None is the "no vertex" sentinel.
const None = ^uint32(0)

// InfDist is the "unreached" distance sentinel used by the traversal
// algorithms in this module tree.
const InfDist = ^uint32(0)

// Edge is a directed (or, in symmetric graphs, canonical) edge with an
// optional weight.
type Edge struct {
	U, V uint32
	W    uint32
}

// Graph is a CSR graph. For directed graphs, Edges holds out-neighbors;
// in-neighbors are available through Transpose. For undirected graphs every
// edge appears as two arcs and Transpose returns the graph itself.
//
// A Graph is immutable once published to readers: concurrent queries,
// the lazily built transpose cached under trOnce, and the epoch
// snapshots in internal/delta all rely on the arrays never changing
// after construction. Code that needs a different arc set must build a
// new Graph (or layer an Overlay patch on top) — mutating Offsets,
// Edges, or Weights in place would race every reader and desynchronize
// any transpose already handed out.
type Graph struct {
	N        int
	Offsets  []uint64 // length N+1
	Edges    []uint32 // length M
	Weights  []uint32 // nil if unweighted, else length M
	Directed bool

	trOnce sync.Once
	tr     *Graph // cached transpose, built once under trOnce
}

// M returns the number of arcs (directed edges) stored.
func (g *Graph) M() int { return len(g.Edges) }

// UndirectedM returns the number of undirected edges in a symmetric graph
// (M/2). It panics on directed graphs.
func (g *Graph) UndirectedM() int {
	if g.Directed {
		panic("graph: UndirectedM on a directed graph")
	}
	return len(g.Edges) / 2
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the out-neighbor slice of v (do not modify).
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v).
func (g *Graph) NeighborWeights(v uint32) []uint32 {
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

func (g *Graph) String() string {
	kind := "undirected"
	m := len(g.Edges) / 2
	if g.Directed {
		kind = "directed"
		m = len(g.Edges)
	}
	w := ""
	if g.Weighted() {
		w = " weighted"
	}
	return fmt.Sprintf("%s%s graph: n=%d m=%d", kind, w, g.N, m)
}

// BuildOptions controls FromEdges.
type BuildOptions struct {
	// Symmetrize adds the reverse of every edge and marks the graph
	// undirected.
	Symmetrize bool
	// KeepSelfLoops retains u->u edges (dropped by default).
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges (deduplicated by default; for
	// weighted graphs the copy with the smallest weight wins).
	KeepDuplicates bool
	// Weighted stores edge weights.
	Weighted bool
}

// FromEdges builds a CSR graph from an edge list with one stable counting
// scatter by source (see DESIGN.md, "Graph construction"): the input splits
// into r contiguous ranges, each range counts its sources into a private
// row, one pass per vertex turns the rows into per-range cursors and the
// degrees, a scan gives the offsets, and each range scatters its arcs in
// input order with plain stores. One pass per vertex then sorts each list
// by destination and, unless KeepDuplicates is set, keeps one arc per
// neighbor. No loop performs an atomic operation, so the build does not
// slow down on skewed degrees. The input slice is never modified.
func FromEdges(n int, edges []Edge, directed bool, opt BuildOptions) *Graph {
	if directed && opt.Symmetrize {
		panic("graph: Symmetrize requires directed=false")
	}
	undirected := opt.Symmetrize || !directed
	g := &Graph{N: n, Offsets: make([]uint64, n+1), Directed: !undirected}
	mEff := len(edges)
	if undirected {
		mEff *= 2
	}
	if uint64(mEff) <= math.MaxUint32 {
		scatterEdges[uint32](g, edges, mEff, undirected, !opt.KeepSelfLoops, opt.Weighted)
	} else {
		scatterEdges[uint64](g, edges, mEff, undirected, !opt.KeepSelfLoops, opt.Weighted)
	}
	g.sortLists(!opt.KeepDuplicates)
	return g
}

// scatterEdges fills g's Offsets, Edges and Weights (if weighted) with the
// arcs of edges, both directions of each when undirected and self-loops
// skipped when dropLoops, grouped by source and in input order within a
// source. It panics on an endpoint outside [0, g.N). mEff is the arc count
// before dropping loops; r = min(workers, max(1, mEff/n)), as in
// countingTranspose, keeps the r·n counters (of type C, wide enough for
// mEff) no larger than the Edges array.
func scatterEdges[C uint32 | uint64](g *Graph, edges []Edge, mEff int, undirected, dropLoops, weighted bool) {
	n, m := g.N, len(edges)
	r := 1
	if n > 0 {
		r = min(parallel.Workers(), max(1, mEff/n))
	}
	// Range i holds edges[cut(i):cut(i+1)].
	cut := func(i int) int { return int(uint64(i) * uint64(m) / uint64(r)) }
	cnt := make([]C, r*n) // row i: range i's count, then its cursor, per source
	parallel.For(r, 1, func(i int) {
		row := cnt[i*n : (i+1)*n]
		for _, e := range edges[cut(i):cut(i+1)] {
			if e.U >= uint32(n) || e.V >= uint32(n) {
				panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n))
			}
			if dropLoops && e.U == e.V {
				continue
			}
			row[e.U]++
			if undirected {
				row[e.V]++
			}
		}
	})
	total := rowCursors(cnt, g.Offsets)
	g.Edges = make([]uint32, total)
	if weighted {
		g.Weights = make([]uint32, total)
	}
	parallel.For(r, 1, func(i int) {
		row := cnt[i*n : (i+1)*n]
		for _, e := range edges[cut(i):cut(i+1)] {
			if dropLoops && e.U == e.V {
				continue
			}
			at := g.Offsets[e.U] + uint64(row[e.U])
			row[e.U]++
			g.Edges[at] = e.V
			if g.Weights != nil {
				g.Weights[at] = e.W
			}
			if undirected {
				at = g.Offsets[e.V] + uint64(row[e.V])
				row[e.V]++
				g.Edges[at] = e.U
				if g.Weights != nil {
					g.Weights[at] = e.W
				}
			}
		}
	})
}

// rowCursors is the middle pass of both counting builders. cnt holds r
// rows of per-vertex counts, row i at cnt[i*n:(i+1)*n] with n =
// len(offsets)-1. One pass per vertex turns each count into that range's
// cursor within the vertex's list (the counts of earlier rows) and the
// column total into offsets[v]; a scan then makes offsets the list starts.
// It returns the arc total.
func rowCursors[C uint32 | uint64](cnt []C, offsets []uint64) uint64 {
	n := len(offsets) - 1
	parallel.For(n, 0, func(v int) {
		var run C
		for at := v; at < len(cnt); at += n {
			c := cnt[at]
			cnt[at] = run
			run += c
		}
		offsets[v] = uint64(run)
	})
	offsets[n] = parallel.Scan(offsets[:n])
	return offsets[n]
}

// sortLists sorts each adjacency list by destination, weights permuted
// alongside, and with dedup set keeps one arc per neighbor. The duplicate
// census rides in the sort's pass, so the compaction needs no sweep of its
// own.
func (g *Graph) sortLists(dedup bool) {
	var newOff []uint64
	if dedup {
		newOff = make([]uint64, g.N+1)
	}
	parallel.For(g.N, 64, func(u int) {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		adj := g.Edges[lo:hi]
		var w []uint32
		if g.Weights != nil {
			w = g.Weights[lo:hi]
		}
		sortAdjList(adj, w)
		if dedup {
			var d uint64
			prev := None
			for _, v := range adj {
				if v != prev {
					d++
					prev = v
				}
			}
			newOff[u] = d
		}
	})
	if dedup {
		g.dedup(newOff)
	}
}

// sortAdjList sorts one adjacency list ascending by destination, permuting
// weights alongside. Already-sorted input costs one scan; short lists use
// the allocation-free shell sort; longer ones (hub lists of skewed graphs)
// use a linear radix sort.
func sortAdjList(adj, w []uint32) {
	n := len(adj)
	if n < 2 {
		return
	}
	sorted := true
	for i := 1; i < n; i++ {
		if adj[i-1] > adj[i] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if n <= 48 {
		shellSortU32(adj, w)
		return
	}
	radixSortAdj(adj, w)
}

// radixSortAdj sorts a long adjacency list with a sequential LSD radix
// over (v,w) packed into uint64. The weight rides in the low half of the
// word, so it permutes along for free; the digit passes only cover the
// destination bits (relative order among equal-destination duplicates is
// unspecified, as everywhere in the builders).
func radixSortAdj(adj, w []uint32) {
	n := len(adj)
	buf := make([]uint64, n)
	var maxV uint32
	for i, v := range adj {
		if v > maxV {
			maxV = v
		}
		buf[i] = uint64(v) << 32
		if w != nil {
			buf[i] |= uint64(w[i])
		}
	}
	tmp := make([]uint64, n)
	for shift := uint(32); shift < 64; shift += 8 {
		if maxV>>(shift-32) == 0 {
			break
		}
		var hist [257]int
		for _, x := range buf {
			hist[((x>>shift)&0xff)+1]++
		}
		for d := 0; d < 256; d++ {
			hist[d+1] += hist[d]
		}
		for _, x := range buf {
			d := (x >> shift) & 0xff
			tmp[hist[d]] = x
			hist[d]++
		}
		buf, tmp = tmp, buf
	}
	for i, x := range buf {
		adj[i] = uint32(x >> 32)
		if w != nil {
			w[i] = uint32(x)
		}
	}
}

// shellSortU32 sorts adj ascending, permuting w alongside. It is the
// short-list fallback: allocation-free (important inside a parallel loop)
// and fast while the list fits in cache. Long lists — where its
// O(n^(4/3))-ish cost used to dominate skewed builds — go to radixSortAdj
// instead.
func shellSortU32(adj []uint32, w []uint32) {
	// Shell sort with Ciura-ish gaps.
	n := len(adj)
	gaps := [...]int{57, 23, 10, 4, 1}
	for _, gap := range gaps {
		if gap >= n {
			continue
		}
		for i := gap; i < n; i++ {
			a := adj[i]
			var wi uint32
			if w != nil {
				wi = w[i]
			}
			j := i
			for j >= gap && adj[j-gap] > a {
				adj[j] = adj[j-gap]
				if w != nil {
					w[j] = w[j-gap]
				}
				j -= gap
			}
			adj[j] = a
			if w != nil {
				w[j] = wi
			}
		}
	}
}

// dedup rewrites the sorted CSR arrays keeping newOff[v] distinct
// neighbors per vertex, the minimum weight winning among duplicates.
// newOff (length N+1) holds the census sortLists takes; a scan turns it
// into the new offsets. A graph with no duplicates is left as it is.
func (g *Graph) dedup(newOff []uint64) {
	total := parallel.Scan(newOff[:g.N])
	if total == uint64(len(g.Edges)) {
		return // nothing to do
	}
	newOff[g.N] = total
	newEdges := make([]uint32, total)
	var newW []uint32
	if g.Weights != nil {
		newW = make([]uint32, total)
	}
	parallel.For(g.N, 64, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		at := newOff[v]
		var prev uint32 = None
		for i := lo; i < hi; i++ {
			if g.Edges[i] != prev {
				prev = g.Edges[i]
				newEdges[at] = prev
				if newW != nil {
					newW[at] = g.Weights[i]
				}
				at++
			} else if newW != nil && g.Weights[i] < newW[at-1] {
				newW[at-1] = g.Weights[i] // min weight wins
			}
		}
	})
	g.Offsets, g.Edges, g.Weights = newOff, newEdges, newW
}

// Transpose returns the reverse graph (in-neighbors). For undirected graphs
// it returns g itself. The result is cached.
func (g *Graph) Transpose() *Graph {
	if !g.Directed {
		return g
	}
	// Concurrent queries sharing one graph may all demand the transpose;
	// the Once makes the lazy build safe (and single) under contention.
	g.trOnce.Do(func() { g.tr = g.buildTranspose() })
	return g.tr
}

// buildTranspose runs the counting transpose with counters wide enough for
// any in-degree of g, and points the result's own cache back at g so the
// round trip is free.
func (g *Graph) buildTranspose() *Graph {
	var tr *Graph
	if uint64(len(g.Edges)) <= math.MaxUint32 {
		tr = countingTranspose[uint32](g)
	} else {
		tr = countingTranspose[uint64](g)
	}
	tr.trOnce.Do(func() { tr.tr = g })
	return tr
}

// countingTranspose is one stable counting transpose. The sources split
// into r contiguous ranges of about m/r arcs; each range counts its
// destinations into a private row, one pass per vertex turns the rows into
// per-range cursors and the in-degree, a scan gives the offsets, and each
// range scatters its arcs in source order with plain stores. So in-lists
// come out sorted by source, duplicates in input order, and every arc is
// kept. r = min(workers, max(1, m/n)) keeps the r·n counters no larger
// than the transpose's own Edges.
func countingTranspose[C uint32 | uint64](g *Graph) *Graph {
	n, m := g.N, len(g.Edges)
	tr := &Graph{N: n, Offsets: make([]uint64, n+1), Edges: make([]uint32, m), Directed: true}
	if g.Weights != nil {
		tr.Weights = make([]uint32, m)
	}
	if n == 0 {
		return tr
	}
	r := min(parallel.Workers(), max(1, m/n))
	// Range i owns the sources [first[i], first[i+1]): those whose arcs
	// start at or past arc i·m/r and before arc (i+1)·m/r.
	first := make([]int, r+1)
	for i := 1; i < r; i++ {
		at := uint64(i) * uint64(m) / uint64(r)
		first[i] = sort.Search(n, func(u int) bool { return g.Offsets[u] >= at })
	}
	first[r] = n
	cnt := make([]C, r*n) // row i: range i's count, then its cursor, per destination
	parallel.For(r, 1, func(i int) {
		row := cnt[i*n : (i+1)*n]
		for _, v := range g.Edges[g.Offsets[first[i]]:g.Offsets[first[i+1]]] {
			row[v]++
		}
	})
	rowCursors(cnt, tr.Offsets)
	parallel.For(r, 1, func(i int) {
		row := cnt[i*n : (i+1)*n]
		for u := first[i]; u < first[i+1]; u++ {
			for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
				v := g.Edges[e]
				at := tr.Offsets[v] + uint64(row[v])
				row[v]++
				tr.Edges[at] = uint32(u)
				if tr.Weights != nil {
					tr.Weights[at] = g.Weights[e]
				}
			}
		}
	})
	return tr
}

// Symmetrized returns the undirected version of g (u~v iff u->v or v->u)
// under FromEdges' default rules: self-loops dropped, one arc per
// neighbor, carrying the smallest weight of the arcs it stands for. For
// undirected graphs it returns g itself.
//
// It builds from g.Transpose(), which it leaves cached on g: one merge per
// vertex of the sorted out- and in-lists writes into the out+in upper-bound
// layout, and a compaction runs only if some arcs collapsed. It relies on
// the package's sorted-list invariant, which Validate enforces on every
// reader.
func (g *Graph) Symmetrized() *Graph {
	if !g.Directed {
		return g
	}
	tr := g.Transpose()
	n, ub := g.N, 2*len(g.Edges)
	s := &Graph{N: n, Offsets: make([]uint64, n+1), Edges: make([]uint32, ub)}
	if g.Weights != nil {
		s.Weights = make([]uint32, ub)
	}
	// Vertex v's slots start at g.Offsets[v] + tr.Offsets[v]; s.Offsets
	// holds each merge's kept count until the scan.
	parallel.For(n, 64, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		tlo, thi := tr.Offsets[v], tr.Offsets[v+1]
		at, end := lo+tlo, hi+thi
		if s.Weights == nil {
			s.Offsets[v] = uint64(union(uint32(v), s.Edges[at:end], g.Edges[lo:hi], tr.Edges[tlo:thi]))
			return
		}
		s.Offsets[v] = uint64(mergeWeighted(uint32(v), s.Edges[at:end], s.Weights[at:end],
			g.Edges[lo:hi], g.Weights[lo:hi], tr.Edges[tlo:thi], tr.Weights[tlo:thi]))
	})
	total := parallel.Scan(s.Offsets[:n])
	s.Offsets[n] = total
	if total == uint64(ub) {
		return s // nothing collapsed: the upper-bound layout is the result
	}
	edges := make([]uint32, total)
	var wts []uint32
	if s.Weights != nil {
		wts = make([]uint32, total)
	}
	parallel.For(n, 64, func(v int) {
		at, k := s.Offsets[v], s.Offsets[v+1]-s.Offsets[v]
		from := g.Offsets[v] + tr.Offsets[v]
		copy(edges[at:at+k], s.Edges[from:from+k])
		if wts != nil {
			copy(wts[at:at+k], s.Weights[from:from+k])
		}
	})
	s.Edges, s.Weights = edges, wts
	return s
}

// AppendUnion returns v's list in g.Symmetrized() from v's sorted out-list
// a and in-list b, merged into dst[:0] (grown when it is short) under the
// same rules: v itself dropped, one entry per neighbor. Peeling kernels
// walk a directed graph's symmetric closure through it without the copy.
func AppendUnion(dst []uint32, v uint32, a, b []uint32) []uint32 {
	out := slices.Grow(dst[:0], len(a)+len(b))[:len(a)+len(b)]
	return out[:union(v, out, a, b)]
}

// union merges v's sorted out-list a and in-list b into out, dropping v
// itself and keeping one entry per neighbor, and returns the entries
// written; out has room for both lists. A neighbor in both lists advances
// both at once, and the advances and the keep are flag arithmetic, so a
// merge of random lists costs no mispredictions. Each step's store lands
// past the kept entries when it is dropped.
func union(v uint32, out, a, b []uint32) int {
	k, i, j := 0, 0, 0
	prev := None // the last neighbor kept
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		z := min(x, y)
		i += bit(x <= y)
		j += bit(y <= x)
		out[k] = z
		k += bit(z != prev) & bit(z != v)
		prev = z
	}
	for _, z := range a[i:] {
		out[k] = z
		k += bit(z != prev) & bit(z != v)
		prev = z
	}
	for _, z := range b[j:] {
		out[k] = z
		k += bit(z != prev) & bit(z != v)
		prev = z
	}
	return k
}

// bit is 1 for true and 0 for false; it compiles to a flag set, not a
// branch.
func bit(c bool) int {
	if c {
		return 1
	}
	return 0
}

// mergeWeighted is union carrying weights (aw, bw in, ow out): a neighbor
// keeps the smallest weight of the arcs it stands for. An exhausted list
// reads as None, which is no vertex.
func mergeWeighted(v uint32, out, ow, a, aw, b, bw []uint32) int {
	k, i, j := 0, 0, 0
	prev := None // the last neighbor kept
	for i < len(a) || j < len(b) {
		x, y := None, None
		if i < len(a) {
			x = a[i]
		}
		if j < len(b) {
			y = b[j]
		}
		z := min(x, y)
		var w uint32
		if x <= y {
			w = aw[i]
			i++
		} else {
			w = bw[j]
			j++
		}
		if z == v {
			continue
		}
		if z != prev {
			out[k], ow[k] = z, w
			k++
			prev = z
		} else {
			ow[k-1] = min(ow[k-1], w)
		}
	}
	return k
}

// ReverseArc returns the arc index of (v,u) given the arc index e of (u,v)
// in a symmetric deduplicated graph, using binary search in v's sorted
// adjacency list. Returns ^uint64(0) if absent.
func (g *Graph) ReverseArc(u uint32, e uint64) uint64 {
	v := g.Edges[e]
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Edges[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.Offsets[v+1] && g.Edges[lo] == u {
		return lo
	}
	return ^uint64(0)
}

// FindArc returns the arc index of edge (u,v), or ^uint64(0) if absent.
func (g *Graph) FindArc(u, v uint32) uint64 {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Edges[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.Offsets[u+1] && g.Edges[lo] == v {
		return lo
	}
	return ^uint64(0)
}

// MaxDegree returns the largest out-degree.
func (g *Graph) MaxDegree() int {
	if g.N == 0 {
		return 0
	}
	return int(parallel.Max(g.N, func(v int) int64 {
		return int64(g.Offsets[v+1] - g.Offsets[v])
	}))
}

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.Edges)) / float64(g.N)
}

// Validate checks structural invariants (monotone offsets, in-range
// neighbors, sorted adjacency). Used by tests and the IO layer.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != uint64(len(g.Edges)) {
		return fmt.Errorf("graph: offset endpoints invalid")
	}
	if g.Weights != nil && len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph: weights length mismatch")
	}
	var bad int64
	bad = parallel.Sum(g.N, func(v int) int64 {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		if lo > hi || hi > uint64(len(g.Edges)) {
			return 1
		}
		for i := lo; i < hi; i++ {
			if g.Edges[i] >= uint32(g.N) {
				return 1
			}
			if i > lo && g.Edges[i-1] > g.Edges[i] {
				return 1
			}
		}
		return 0
	})
	if bad != 0 {
		return fmt.Errorf("graph: %d vertices with invalid adjacency", bad)
	}
	return nil
}

// IsSymmetric verifies that every arc has a reverse arc (expensive; test
// helper).
func (g *Graph) IsSymmetric() bool {
	bad := parallel.Sum(g.N, func(u int) int64 {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for i := lo; i < hi; i++ {
			if g.ReverseArc(uint32(u), i) == ^uint64(0) {
				return 1
			}
		}
		return 0
	})
	return bad == 0
}
