package graph

import (
	"fmt"
	"sync"

	"pasgal/internal/parallel"
)

// Overlay is the third Adjacency representation: an immutable base CSR
// plus a per-vertex edge patch. The patch is itself CSR-shaped — two
// small sorted arrays per vertex, additions and tombstones — so a scan
// of v's effective adjacency is a three-way sorted merge: base arcs with
// the tombstoned ones skipped, interleaved with the added arcs. The
// delta store (package internal/delta) builds one Overlay per epoch;
// queries that pinned an epoch keep scanning that Overlay while newer
// epochs accumulate fresh patches over the same base.
//
// Invariants (established by the delta store's batch canonicalization,
// checked by Validate):
//
//   - every tombstone names an arc present in the base;
//   - an added arc is never also a live base arc — a weight change is
//     represented as tombstone + add of the same (u,v), so adds may
//     intersect the tombstone set but never base∖tombstones;
//   - per-vertex adds and tombstones are strictly sorted by destination
//     and contain no self-loops.
//
// Like Graph and Compressed, an Overlay is immutable after construction
// and safe for concurrent readers. It never writes through to its base:
// the base pointer is captured at construction and compaction always
// builds a *new* base Graph, so an Overlay snapshot can never observe —
// or trigger — state from an epoch that closed after it was taken. Its
// lazy transpose is an Overlay over base.Transpose() with the patch
// arrays reversed, which is safe for exactly that reason.
type Overlay struct {
	base   *Graph
	addOff []uint64 // length N+1; adds[addOff[v]:addOff[v+1]] is v's additions
	adds   []uint32
	addW   []uint32 // nil iff base is unweighted, else parallel to adds
	delOff []uint64 // length N+1; dels[delOff[v]:delOff[v+1]] is v's tombstones
	dels   []uint32
	m      int // effective arc count: base.M() + len(adds) - len(dels)

	trOnce sync.Once
	tr     *Overlay // cached transpose, built once under trOnce
}

// NewOverlay assembles an Overlay from a base graph and patch arrays.
// The slices are captured, not copied: the caller must not modify them
// afterwards. addW must be non-nil exactly when base carries weights.
func NewOverlay(base *Graph, addOff []uint64, adds, addW []uint32, delOff []uint64, dels []uint32) *Overlay {
	if base.Weighted() != (addW != nil) {
		panic("graph: overlay weight arrays must match the base")
	}
	if len(addOff) != base.N+1 || len(delOff) != base.N+1 {
		panic("graph: overlay patch offsets must have N+1 entries")
	}
	return &Overlay{
		base:   base,
		addOff: addOff,
		adds:   adds,
		addW:   addW,
		delOff: delOff,
		dels:   dels,
		m:      base.M() + len(adds) - len(dels),
	}
}

// EmptyOverlay returns an Overlay with no patches over base (a
// zero-delta epoch view; scans fall through to the base arrays).
func EmptyOverlay(base *Graph) *Overlay {
	off := make([]uint64, base.N+1)
	var addW []uint32
	if base.Weighted() {
		addW = make([]uint32, 0)
	}
	return NewOverlay(base, off, nil, addW, off, nil)
}

// Base returns the immutable base graph the patch applies to.
func (o *Overlay) Base() *Graph { return o.base }

// PatchArcs returns the patch size (additions plus tombstones) — the
// quantity the delta store's compaction policy thresholds on.
func (o *Overlay) PatchArcs() int { return len(o.adds) + len(o.dels) }

// Added returns v's added arcs and their weights (nil when unweighted).
// Callers must not modify the slices.
func (o *Overlay) Added(v uint32) (nbrs, wts []uint32) {
	lo, hi := o.addOff[v], o.addOff[v+1]
	if o.addW != nil {
		wts = o.addW[lo:hi]
	}
	return o.adds[lo:hi], wts
}

// Deleted returns v's tombstoned destinations. Callers must not modify
// the slice.
func (o *Overlay) Deleted(v uint32) []uint32 {
	return o.dels[o.delOff[v]:o.delOff[v+1]]
}

// NumVertices implements Adjacency.
func (o *Overlay) NumVertices() int { return o.base.N }

// NumArcs implements Adjacency.
func (o *Overlay) NumArcs() int { return o.m }

// IsDirected implements Adjacency.
func (o *Overlay) IsDirected() bool { return o.base.Directed }

// HasWeights implements Adjacency.
func (o *Overlay) HasWeights() bool { return o.base.Weighted() }

// DegreeOf implements Adjacency: base degree, patched.
func (o *Overlay) DegreeOf(v uint32) int {
	return o.base.Degree(v) +
		int(o.addOff[v+1]-o.addOff[v]) -
		int(o.delOff[v+1]-o.delOff[v])
}

func (o *Overlay) sealed() {}

func (o *Overlay) String() string {
	kind := "undirected"
	m := o.m / 2
	if o.base.Directed {
		kind = "directed"
		m = o.m
	}
	w := ""
	if o.HasWeights() {
		w = " weighted"
	}
	return fmt.Sprintf("overlay %s%s graph: n=%d m=%d (+%d/-%d patch arcs)",
		kind, w, o.base.N, m, len(o.adds), len(o.dels))
}

// AppendNeighbors appends v's effective neighbors to buf (usually
// buf[:0] of a reused scratch slice) and returns the extended slice —
// the same bulk-decode contract as Compressed.AppendNeighbors, so the
// kernels' overlay scan closures mirror their compressed ones. Patch-
// free vertices cost one bulk append of the base list.
func (o *Overlay) AppendNeighbors(v uint32, buf []uint32) []uint32 {
	base := o.base.Neighbors(v)
	dels := o.Deleted(v)
	adds, _ := o.Added(v)
	if len(dels) == 0 && len(adds) == 0 {
		return append(buf, base...)
	}
	di, ai := 0, 0
	for _, x := range base {
		for ai < len(adds) && adds[ai] < x {
			buf = append(buf, adds[ai])
			ai++
		}
		if di < len(dels) && dels[di] == x {
			di++
			// A matching add is a weight override riding on this
			// tombstone; emit it in place of the base arc.
			if ai < len(adds) && adds[ai] == x {
				buf = append(buf, x)
				ai++
			}
			continue
		}
		buf = append(buf, x)
	}
	for ; ai < len(adds); ai++ {
		buf = append(buf, adds[ai])
	}
	return buf
}

// AppendArcs appends v's effective neighbors and weights to the two
// scratch slices and returns both extended. It panics on unweighted
// overlays, mirroring Compressed.AppendArcs.
func (o *Overlay) AppendArcs(v uint32, nbrs, wts []uint32) ([]uint32, []uint32) {
	if o.addW == nil {
		panic("graph: AppendArcs on an unweighted overlay")
	}
	base := o.base.Neighbors(v)
	baseW := o.base.NeighborWeights(v)
	dels := o.Deleted(v)
	adds, addW := o.Added(v)
	if len(dels) == 0 && len(adds) == 0 {
		return append(nbrs, base...), append(wts, baseW...)
	}
	di, ai := 0, 0
	for i, x := range base {
		for ai < len(adds) && adds[ai] < x {
			nbrs = append(nbrs, adds[ai])
			wts = append(wts, addW[ai])
			ai++
		}
		if di < len(dels) && dels[di] == x {
			di++
			if ai < len(adds) && adds[ai] == x {
				nbrs = append(nbrs, x)
				wts = append(wts, addW[ai])
				ai++
			}
			continue
		}
		nbrs = append(nbrs, x)
		wts = append(wts, baseW[i])
	}
	for ; ai < len(adds); ai++ {
		nbrs = append(nbrs, adds[ai])
		wts = append(wts, addW[ai])
	}
	return nbrs, wts
}

// HasArc reports whether (u,v) is an effective arc of the overlay.
func (o *Overlay) HasArc(u, v uint32) bool {
	adds, _ := o.Added(u)
	if sortedContains(adds, v) {
		return true
	}
	if o.base.FindArc(u, v) == ^uint64(0) {
		return false
	}
	return !sortedContains(o.Deleted(u), v)
}

// OverlayFromEdits builds an Overlay over base from edge-level edits,
// with the same batch semantics as the delta store and the serving
// /update contract: deletes apply first, then adds; undirected edits
// expand to both arcs; self-loops, out-of-range endpoints, deletes of
// absent edges, and adds of already-identical live arcs are no-ops; on
// weighted bases an add over a live arc with a different weight becomes
// tombstone + re-add. It is a convenience constructor for tests and
// tools — the delta store builds its patches through the radix
// primitives and an explicit diff instead.
func OverlayFromEdits(base *Graph, dels, adds []Edge) *Overlay {
	type arcKey struct{ u, v uint32 }
	tomb := map[arcKey]bool{}
	addM := map[arcKey]uint32{}
	inRange := func(e Edge) bool {
		return e.U != e.V && e.U < uint32(base.N) && e.V < uint32(base.N)
	}
	eachArc := func(e Edge, f func(u, v uint32)) {
		f(e.U, e.V)
		if !base.Directed {
			f(e.V, e.U)
		}
	}
	for _, e := range dels {
		if !inRange(e) {
			continue
		}
		eachArc(e, func(u, v uint32) {
			if base.FindArc(u, v) != ^uint64(0) {
				tomb[arcKey{u, v}] = true
			}
			delete(addM, arcKey{u, v})
		})
	}
	for _, e := range adds {
		if !inRange(e) {
			continue
		}
		w := e.W
		eachArc(e, func(u, v uint32) {
			k := arcKey{u, v}
			if i := base.FindArc(u, v); i != ^uint64(0) && !tomb[k] {
				if base.Weighted() && base.Weights[i] != w {
					tomb[k] = true
					addM[k] = w
				}
				return // live identical arc: no-op
			}
			addM[k] = w
		})
	}

	// The arcs are distinct, so FromEdges only groups and sorts them.
	var addE, delE []Edge
	for k, w := range addM {
		addE = append(addE, Edge{U: k.u, V: k.v, W: w})
	}
	for k := range tomb {
		delE = append(delE, Edge{U: k.u, V: k.v})
	}
	a := FromEdges(base.N, addE, true, BuildOptions{Weighted: base.Weighted()})
	d := FromEdges(base.N, delE, true, BuildOptions{})
	return NewOverlay(base, a.Offsets, a.Edges, a.Weights, d.Offsets, d.Edges)
}

// sortedContains reports whether x occurs in the sorted slice s.
func sortedContains(s []uint32, x uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Transpose returns the reverse overlay, built lazily on first use and
// cached: an Overlay over base.Transpose() with the patch arrays
// reversed. Undirected overlays are their own transpose. The build
// never consults any state newer than this overlay's epoch — the base
// transpose is a pure function of the (immutable) base, and a
// compaction that closes the epoch installs a fresh base Graph with its
// own transpose cache rather than touching this one.
func (o *Overlay) Transpose() *Overlay {
	if !o.base.Directed {
		return o
	}
	o.trOnce.Do(func() {
		// The patch arrays are CSR-shaped, so the counting transpose
		// reverses them with every reversed list sorted.
		n := o.base.N
		ra := (&Graph{N: n, Offsets: o.addOff, Edges: o.adds, Weights: o.addW, Directed: true}).Transpose()
		rd := (&Graph{N: n, Offsets: o.delOff, Edges: o.dels, Directed: true}).Transpose()
		tr := NewOverlay(o.base.Transpose(), ra.Offsets, ra.Edges, ra.Weights, rd.Offsets, rd.Edges)
		tr.trOnce.Do(func() { tr.tr = o })
		o.tr = tr
	})
	return o.tr
}

// Materialize builds a fresh plain CSR graph with the overlay's
// effective arc set — the flat form compaction installs as the next
// base. The merged per-vertex scans emit sorted deduplicated lists, so
// the result satisfies every Graph invariant without a sort pass.
func (o *Overlay) Materialize() *Graph {
	n := o.base.N
	g := &Graph{
		N:        n,
		Offsets:  make([]uint64, n+1),
		Directed: o.base.Directed,
	}
	parallel.For(n, 256, func(v int) { g.Offsets[v] = uint64(o.DegreeOf(uint32(v))) })
	total := parallel.Scan(g.Offsets[:n])
	g.Offsets[n] = total
	g.Edges = make([]uint32, total)
	weighted := o.HasWeights()
	if weighted {
		g.Weights = make([]uint32, total)
	}
	parallel.For(n, 64, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		if weighted {
			nbrs, wts := o.AppendArcs(uint32(v), g.Edges[lo:lo:hi], g.Weights[lo:lo:hi])
			if uint64(len(nbrs)) != hi-lo || uint64(len(wts)) != hi-lo {
				panic("graph: overlay degree/scan mismatch")
			}
		} else {
			nbrs := o.AppendNeighbors(uint32(v), g.Edges[lo:lo:hi])
			if uint64(len(nbrs)) != hi-lo {
				panic("graph: overlay degree/scan mismatch")
			}
		}
	})
	return g
}

// Validate checks the patch invariants against the base (test helper;
// O(patch · log(degree))).
func (o *Overlay) Validate() error {
	n := o.base.N
	if len(o.addOff) != n+1 || len(o.delOff) != n+1 {
		return fmt.Errorf("graph: overlay offsets must have %d entries", n+1)
	}
	if o.addOff[0] != 0 || o.addOff[n] != uint64(len(o.adds)) {
		return fmt.Errorf("graph: add offsets span [%d,%d], want [0,%d]", o.addOff[0], o.addOff[n], len(o.adds))
	}
	if o.delOff[0] != 0 || o.delOff[n] != uint64(len(o.dels)) {
		return fmt.Errorf("graph: del offsets span [%d,%d], want [0,%d]", o.delOff[0], o.delOff[n], len(o.dels))
	}
	if o.base.Weighted() != (o.addW != nil) || (o.addW != nil && len(o.addW) != len(o.adds)) {
		return fmt.Errorf("graph: overlay weight array mismatch")
	}
	for v := 0; v < n; v++ {
		if o.addOff[v] > o.addOff[v+1] || o.delOff[v] > o.delOff[v+1] {
			return fmt.Errorf("graph: overlay offsets decrease at vertex %d", v)
		}
		adds, _ := o.Added(uint32(v))
		dels := o.Deleted(uint32(v))
		for i, x := range adds {
			if x >= uint32(n) || x == uint32(v) {
				return fmt.Errorf("graph: invalid add (%d,%d)", v, x)
			}
			if i > 0 && adds[i-1] >= x {
				return fmt.Errorf("graph: adds of %d not strictly sorted", v)
			}
			if o.base.FindArc(uint32(v), x) != ^uint64(0) && !sortedContains(dels, x) {
				return fmt.Errorf("graph: add (%d,%d) duplicates a live base arc", v, x)
			}
		}
		for i, x := range dels {
			if i > 0 && dels[i-1] >= x {
				return fmt.Errorf("graph: dels of %d not strictly sorted", v)
			}
			if o.base.FindArc(uint32(v), x) == ^uint64(0) {
				return fmt.Errorf("graph: tombstone (%d,%d) names no base arc", v, x)
			}
		}
	}
	return nil
}
