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
	"math/bits"
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

// seqBuildArcs is the arc-count threshold below which the builders use the
// sequential count–scatter–shellsort path: the radix pipeline's scratch
// buffers and parallel launches don't pay for themselves on tiny inputs
// (unit-test graphs, induced subgraphs, contraction remnants).
const seqBuildArcs = 1 << 12

// smallVertexRadix is the vertex-count cutoff below which the parallel
// build fully sorts arcs by the packed (u,v) key: with so few vertices the
// key is narrow, so CountSortByKey finishes in at most three digit passes
// and the sorted arc array IS the adjacency array. Larger graphs use the
// bucketed pipeline instead, whose cost does not grow with the key width.
const smallVertexRadix = 1 << 12

// topBucketBits sizes the first-level partition of the bucketed build:
// arcs are grouped into about 2^topBucketBits contiguous source ranges, a
// fan-out small enough that the scatter's write streams stay cache- and
// TLB-resident.
const topBucketBits = 10

// packedBuildMaxVBits is the vertex-id width up to which a whole arc —
// source, destination, and weight — packs into one uint64
// (u<<48 | v<<32 | w), letting every build pass move 8-byte words instead
// of 12-byte Edge records. Larger graphs use the Edge-record pipeline.
const packedBuildMaxVBits = 16

// packArc packs an arc for the packed build path.
func packArc(u, v, w uint32) uint64 {
	return uint64(u)<<48 | uint64(v)<<32 | uint64(w)
}

// FromEdges builds a CSR graph from an edge list with a contention-free
// count–scan–scatter pipeline (see DESIGN.md, "Graph construction"): a
// stable radix partition groups arcs into source ranges, per-range local
// histograms place them (and yield the offsets), and an adaptive per-list
// sort orders each adjacency by destination. No hot loop performs an
// atomic operation, so build throughput is independent of degree skew.
// Inputs below seqBuildArcs arcs take a sequential small-graph path
// instead. The input slice is never modified.
func FromEdges(n int, edges []Edge, directed bool, opt BuildOptions) *Graph {
	if directed && opt.Symmetrize {
		panic("graph: Symmetrize requires directed=false")
	}
	undirected := opt.Symmetrize || !directed

	// One read-only sweep: bounds check plus self-loop census (so the
	// common loop-free case skips any filtering work entirely).
	selfLoops := parallel.Sum(len(edges), func(i int) int64 {
		e := edges[i]
		if e.U >= uint32(n) || e.V >= uint32(n) {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n))
		}
		if e.U == e.V {
			return 1
		}
		return 0
	})

	dropLoops := !opt.KeepSelfLoops && selfLoops > 0
	mEff := len(edges)
	if undirected {
		mEff *= 2
	}
	if n > smallVertexRadix && n <= 1<<packedBuildMaxVBits && mEff >= seqBuildArcs {
		// Vertex ids fit in 16 bits: pack each arc into one uint64 (the
		// undirected doubling fused into the packing pass) and run the
		// word-at-a-time pipeline.
		packed := make([]uint64, mEff)
		if undirected {
			parallel.For(len(edges), 0, func(i int) {
				e := edges[i]
				packed[2*i] = packArc(e.U, e.V, e.W)
				packed[2*i+1] = packArc(e.V, e.U, e.W)
			})
		} else {
			parallel.For(len(edges), 0, func(i int) {
				e := edges[i]
				packed[i] = packArc(e.U, e.V, e.W)
			})
		}
		return buildCSRPacked(n, packed, !undirected, opt, dropLoops)
	}

	arcs := edges
	if undirected {
		// Undirected: materialize both arcs.
		in := arcs
		arcs = make([]Edge, 2*len(in))
		parallel.For(len(in), 0, func(i int) {
			arcs[2*i] = in[i]
			arcs[2*i+1] = Edge{U: in[i].V, V: in[i].U, W: in[i].W}
		})
	}
	return buildCSR(n, arcs, !undirected, opt, dropLoops)
}

// buildCSR turns a prepared arc list (already symmetrized) into a CSR
// graph. arcs is read-only. dropLoops asks the builder to discard u->u
// arcs: the bucketed path folds the drop into its partition key (no extra
// pass), the small paths filter up front.
func buildCSR(n int, arcs []Edge, directed bool, opt BuildOptions, dropLoops bool) *Graph {
	if n > smallVertexRadix && len(arcs) >= seqBuildArcs {
		return buildCSRBuckets(n, arcs, directed, opt, dropLoops)
	}
	if dropLoops {
		in := arcs
		arcs = parallel.Pack(in, func(i int) bool { return in[i].U != in[i].V })
	}
	if len(arcs) < seqBuildArcs {
		return buildCSRSeq(n, arcs, directed, opt)
	}
	// Few vertices, many arcs (dense multigraphs, contraction quotients):
	// stably sort by the packed (u,v) key — at most ceil(2*vbits/8) digit
	// passes — so adjacency comes out grouped by u, sorted by v, duplicate
	// runs adjacent and in input order.
	vbits := uint(bits.Len(uint(n - 1)))
	maxKey := uint64(n-1)<<vbits | uint64(n-1)
	sorted := parallel.CountSortByKey(arcs, func(e Edge) uint64 {
		return uint64(e.U)<<vbits | uint64(e.V)
	}, maxKey)
	return csrFromSortedArcs(n, sorted, directed, opt)
}

// buildCSRBuckets is the large-graph builder: a two-level stable counting
// scatter followed by an adaptive per-list sort.
//
//  1. One PartitionByKey pass groups arcs by the topBucketBits high bits
//     of the source (self-loops, when dropped, route to a trash group
//     instead of costing a filter pass). ~1K write streams keep the
//     scatter cache-friendly where a direct by-source scatter (one stream
//     per vertex) would miss on every store.
//  2. Per bucket, a local histogram over that bucket's few hundred
//     sources — L1-resident — turns into offsets and cursors with one
//     tiny sequential scan, and the local scatter writes each arc to its
//     final CSR slot. Buckets own disjoint Offsets/Edges ranges, so all
//     stores are plain.
//  3. Each adjacency list is sorted by destination: already-sorted lists
//     cost one scan, short lists
//     shell sort in place, and hub lists take a linear LSD radix over
//     (v,w) packed into uint64 — the step that used to go superlinear on
//     power-law graphs. The duplicate census rides along in the same
//     pass, so dedup needs no extra sweep before its compaction.
//
// Both scatter levels are stable (chunk-ordered cursors, left-to-right
// walks), so duplicate arcs reach step 3 adjacent and in input order.
func buildCSRBuckets(n int, arcs []Edge, directed bool, opt BuildOptions, dropLoops bool) *Graph {
	vbits := uint(bits.Len(uint(n - 1)))
	shift := vbits - topBucketBits // n > smallVertexRadix, so shift >= 3
	k := ((n - 1) >> shift) + 1
	key := func(e Edge) uint32 { return e.U >> shift }
	groups := k
	if dropLoops {
		groups = k + 1
		key = func(e Edge) uint32 {
			if e.U == e.V {
				return uint32(k) // trash group, past every real bucket
			}
			return e.U >> shift
		}
	}
	tmp := make([]Edge, len(arcs))
	topOff := parallel.PartitionByKey(tmp, arcs, groups, key)
	m := int(topOff[k]) // excludes the trash group

	g := &Graph{N: n, Directed: directed}
	g.Offsets = make([]uint64, n+1)
	g.Edges = make([]uint32, m)
	if opt.Weighted {
		g.Weights = make([]uint32, m)
	}
	span := 1 << shift
	parallel.For(k, 1, func(b int) {
		base, end := int(topOff[b]), int(topOff[b+1])
		lowU := b << shift
		localN := span
		if lowU+localN > n {
			localN = n - lowU
		}
		// Degrees from the bucket-local histogram; the exclusive scan
		// yields this source range's CSR offsets and scatter cursors in
		// one go. localN is a few hundred, so cur lives in L1.
		cur := make([]int64, localN)
		for i := base; i < end; i++ {
			cur[int(tmp[i].U)-lowU]++
		}
		run := int64(base)
		for j := 0; j < localN; j++ {
			c := cur[j]
			cur[j] = run
			g.Offsets[lowU+j] = uint64(run)
			run += c
		}
		for i := base; i < end; i++ {
			j := int(tmp[i].U) - lowU
			at := cur[j]
			cur[j]++
			g.Edges[at] = tmp[i].V
			if g.Weights != nil {
				g.Weights[at] = tmp[i].W
			}
		}
	})
	g.Offsets[n] = uint64(m)

	dedup := !opt.KeepDuplicates
	var newDeg []int64
	if dedup {
		newDeg = make([]int64, n)
	}
	parallel.For(n, 64, func(u int) {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		adj := g.Edges[lo:hi]
		var w []uint32
		if g.Weights != nil {
			w = g.Weights[lo:hi]
		}
		sortAdjList(adj, w)
		if dedup {
			var d int64
			var prev = None
			for _, v := range adj {
				if v != prev {
					d++
					prev = v
				}
			}
			newDeg[u] = d
		}
	})
	if dedup {
		g.dedupCompact(newDeg)
	}
	return g
}

// buildCSRPacked is the uint64 variant of the bucketed build for graphs
// whose vertex ids fit in packedBuildMaxVBits bits: each arc travels as
// u<<48 | v<<32 | w, so the top-level partition and the in-bucket digit
// passes all move one machine word instead of a 12-byte Edge record. Per
// bucket, two stable LSD passes over the destination bits leave the
// segment sorted by v; the final digit pass — over the low source bits —
// then completes the (u,v) order, and is fused three ways: its histogram
// is the degree array, the histogram's prefix sums are this range's CSR
// offsets, and its scatter writes destinations and weights straight into
// their final slots. No arc is ever stored sorted in full; the CSR arrays
// are the sort's last pass.
func buildCSRPacked(n int, packed []uint64, directed bool, opt BuildOptions, dropLoops bool) *Graph {
	// n > smallVertexRadix on this route, so the shift is at least 3 and
	// there are at most 2^topBucketBits source buckets.
	shift := uint(bits.Len(uint(n-1))) - topBucketBits
	k := ((n - 1) >> shift) + 1
	tmp := make([]uint64, len(packed))
	var topOff []int64
	if dropLoops {
		// Self-loops route to a trash group past every real bucket, so the
		// drop costs nothing beyond this keyed (rather than bit-field)
		// partition.
		topOff = parallel.PartitionByKey(tmp, packed, k+1, func(x uint64) uint32 {
			u := uint32(x >> 48)
			if u == uint32(x>>32)&0xffff {
				return uint32(k)
			}
			return u >> shift
		})
	} else {
		topOff = parallel.PartitionByBits(tmp, packed, k, 48+shift)
	}
	m := int(topOff[k]) // excludes the trash group

	g := &Graph{N: n, Directed: directed}
	g.Offsets = make([]uint64, n+1)
	g.Edges = make([]uint32, m)
	if opt.Weighted {
		g.Weights = make([]uint32, m)
	}
	span := 1 << shift
	parallel.For(k, 1, func(b int) {
		base, end := int(topOff[b]), int(topOff[b+1])
		lowU := b << shift
		localN := span
		if lowU+localN > n {
			localN = n - lowU
		}
		seg := tmp[base:end]
		if len(seg) > 1 {
			// Two stable passes over the 16 destination bits, L2-resident
			// for typical bucket sizes.
			scratch := make([]uint64, len(seg))
			radixPassU64(scratch, seg, 32)
			radixPassU64(seg, scratch, 40)
		}
		cur := make([]int64, localN)
		for _, x := range seg {
			cur[int(x>>48)-lowU]++
		}
		run := int64(base)
		for j := 0; j < localN; j++ {
			c := cur[j]
			cur[j] = run
			g.Offsets[lowU+j] = uint64(run)
			run += c
		}
		for _, x := range seg {
			j := int(x>>48) - lowU
			at := cur[j]
			cur[j]++
			g.Edges[at] = uint32(x>>32) & 0xffff
			if g.Weights != nil {
				g.Weights[at] = uint32(x)
			}
		}
	})
	g.Offsets[n] = uint64(m)
	if !opt.KeepDuplicates {
		g.dedup()
	}
	return g
}

// radixPassU64 is one stable 8-bit counting pass of an LSD radix sort.
func radixPassU64(dst, src []uint64, shift uint) {
	var hist [257]int
	for _, x := range src {
		hist[((x>>shift)&0xff)+1]++
	}
	for d := 0; d < 256; d++ {
		hist[d+1] += hist[d]
	}
	for _, x := range src {
		d := (x >> shift) & 0xff
		dst[hist[d]] = x
		hist[d]++
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

// csrFromSortedArcs finalizes a CSR graph from arcs sorted by (source,
// destination): offsets come from the sorted-order boundaries, and when
// deduplicating, the compaction fuses duplicate removal, min-weight
// selection, and the Edges/Weights scatter into one pass over a PackIndex
// of the run heads.
func csrFromSortedArcs(n int, arcs []Edge, directed bool, opt BuildOptions) *Graph {
	m := len(arcs)
	dedup := !opt.KeepDuplicates
	var kept []uint32
	if dedup {
		kept = parallel.PackIndex(m, func(i int) bool {
			return i == 0 || arcs[i].U != arcs[i-1].U || arcs[i].V != arcs[i-1].V
		})
		if len(kept) == m {
			dedup = false // duplicate-free already: skip the indirection
			kept = nil
		}
	}
	var edges, wts []uint32
	var offsets []uint64
	if !dedup {
		edges = make([]uint32, m)
		if opt.Weighted {
			wts = make([]uint32, m)
		}
		parallel.ForRange(m, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				edges[i] = arcs[i].V
				if wts != nil {
					wts[i] = arcs[i].W
				}
			}
		})
		offsets = offsetsFromSorted(n, m, func(i int) uint32 { return arcs[i].U })
	} else {
		k := len(kept)
		edges = make([]uint32, k)
		if opt.Weighted {
			wts = make([]uint32, k)
		}
		parallel.ForRange(k, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				j := int(kept[i])
				edges[i] = arcs[j].V
				if wts != nil {
					// Min weight over the duplicate run wins; the stable
					// sort made the run adjacent, starting at its head j.
					u, v, w := arcs[j].U, arcs[j].V, arcs[j].W
					for t := j + 1; t < m && arcs[t].U == u && arcs[t].V == v; t++ {
						if arcs[t].W < w {
							w = arcs[t].W
						}
					}
					wts[i] = w
				}
			}
		})
		offsets = offsetsFromSorted(n, k, func(i int) uint32 { return arcs[kept[i]].U })
	}
	return &Graph{N: n, Offsets: offsets, Edges: edges, Weights: wts, Directed: directed}
}

// offsetsFromSorted computes CSR offsets for k arcs sorted by source
// (uAt(i) = source of arc i): offsets[v] = first arc index whose source is
// >= v. Each boundary between consecutive distinct sources fills the
// (prev, u] gap, so all writes are disjoint and the pass needs no atomics;
// indices up to and including uAt(0) keep the zero from make.
func offsetsFromSorted(n, k int, uAt func(i int) uint32) []uint64 {
	offsets := make([]uint64, n+1)
	if k == 0 {
		return offsets
	}
	parallel.ForRange(k, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				continue
			}
			u := uAt(i)
			if prev := uAt(i - 1); prev != u {
				for v := prev + 1; v <= u; v++ {
					offsets[v] = uint64(i)
				}
			}
		}
	})
	last := int(uAt(k - 1))
	parallel.For(n-last, 0, func(i int) {
		offsets[last+1+i] = uint64(k)
	})
	return offsets
}

// buildCSRSeq is the small-input builder: single-threaded counting scatter,
// shell-sorted adjacency lists, then the dedup compaction. It does no
// synchronization at all — below seqBuildArcs arcs that beats any parallel
// plan.
func buildCSRSeq(n int, arcs []Edge, directed bool, opt BuildOptions) *Graph {
	deg := make([]int64, n)
	for _, e := range arcs {
		deg[e.U]++
	}
	offsets := make([]uint64, n+1)
	var running uint64
	for v := 0; v < n; v++ {
		offsets[v] = running
		running += uint64(deg[v])
	}
	offsets[n] = running
	edges := make([]uint32, running)
	var wts []uint32
	if opt.Weighted {
		wts = make([]uint32, running)
	}
	cursor := deg // reuse as the next-write positions
	for v := 0; v < n; v++ {
		cursor[v] = int64(offsets[v])
	}
	for _, e := range arcs {
		at := cursor[e.U]
		cursor[e.U]++
		edges[at] = e.V
		if wts != nil {
			wts[at] = e.W
		}
	}
	g := &Graph{N: n, Offsets: offsets, Edges: edges, Weights: wts, Directed: directed}
	g.sortAdjacency()
	if !opt.KeepDuplicates {
		g.dedup()
	}
	return g
}

// sortAdjacency sorts each adjacency list (with weights permuted along).
// Only the sequential small-graph path needs it; the parallel builds emit
// sorted lists via the packed-key sort or sortAdjList.
func (g *Graph) sortAdjacency() {
	parallel.For(g.N, 64, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		if hi-lo < 2 {
			return
		}
		adj := g.Edges[lo:hi]
		if g.Weights == nil {
			shellSortU32(adj, nil)
		} else {
			shellSortU32(adj, g.Weights[lo:hi])
		}
	})
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

// dedup removes duplicate neighbors (keeping the minimum weight) and
// rebuilds the CSR arrays compactly. The bucketed build fuses the census
// into its sort pass and calls dedupCompact directly; the packed-key radix
// path fuses the whole thing into csrFromSortedArcs; only the sequential
// small-graph path still needs this standalone sweep.
func (g *Graph) dedup() {
	newDeg := make([]int64, g.N)
	parallel.For(g.N, 64, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		var d int64
		var prev uint32 = None
		for i := lo; i < hi; i++ {
			if g.Edges[i] != prev {
				d++
				prev = g.Edges[i]
			}
		}
		newDeg[v] = d
	})
	g.dedupCompact(newDeg)
}

// dedupCompact rewrites the CSR arrays keeping newDeg[v] distinct
// neighbors per vertex (minimum weight winning among duplicates).
// newDeg is consumed: the exclusive scan turns it into the new offsets.
func (g *Graph) dedupCompact(newDeg []int64) {
	total := parallel.Scan(newDeg)
	if total == int64(len(g.Edges)) {
		return // nothing to do
	}
	newOff := make([]uint64, g.N+1)
	parallel.For(g.N, 0, func(v int) { newOff[v] = uint64(newDeg[v]) })
	newOff[g.N] = uint64(total)
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
	parallel.For(n, 0, func(v int) {
		var run C
		for at := v; at < len(cnt); at += n {
			c := cnt[at]
			cnt[at] = run
			run += c
		}
		tr.Offsets[v] = uint64(run)
	})
	tr.Offsets[n] = parallel.Scan(tr.Offsets[:n])
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
		var ow, aw, bw []uint32
		if s.Weights != nil {
			ow, aw, bw = s.Weights[at:end], g.Weights[lo:hi], tr.Weights[tlo:thi]
		}
		s.Offsets[v] = uint64(mergeSymmetric(uint32(v), s.Edges[at:end], ow,
			g.Edges[lo:hi], aw, tr.Edges[tlo:thi], bw))
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

// mergeSymmetric merges v's sorted out-list a and in-list b into out,
// dropping v itself and keeping one entry per neighbor. With weights (aw,
// bw in, ow out; all nil when unweighted) a neighbor keeps the smallest
// weight of the arcs it stands for. It returns the entries written. An
// exhausted list reads as None, which is no vertex. Unweighted, the pick
// and the keep are conditional moves, so a merge of random lists costs no
// mispredictions.
func mergeSymmetric(v uint32, out, ow, a, aw, b, bw []uint32) int {
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
		if ow != nil {
			if x <= y {
				w = aw[i]
			} else {
				w = bw[j]
			}
		}
		var step, fresh int
		if x <= y {
			step = 1
		}
		i += step
		j += 1 - step
		if z == v {
			continue
		}
		if z != prev {
			fresh = 1
		}
		out[k] = z // a duplicate's store lands past the kept entries
		if ow != nil {
			if fresh == 1 {
				ow[k] = w
			} else {
				ow[k-1] = min(ow[k-1], w)
			}
		}
		k += fresh
		prev = z
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
