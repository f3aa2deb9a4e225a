// Package delta adds mutation to the otherwise-immutable graph
// representations: a Store accepts batched edge inserts and deletes,
// folds them into a per-vertex patch overlay (graph.Overlay) over an
// untouched base CSR, and publishes each new state as an immutable
// epoch. Queries pin an epoch with Snapshot — a refcount, not a lock —
// and keep a perfectly consistent view for as long as they hold it,
// while writers keep publishing newer epochs. Background compaction
// installs the overlay's own merged lists (graph.Overlay.Materialize) as
// a fresh base CSR and retires old epochs once their last snapshot
// releases.
//
// The single-writer, many-reader design mirrors the rest of the
// library: Apply and Compact serialize on a writer mutex, but Snapshot
// and Release only touch a refcount under a fast mutex, so queries
// never wait for an in-flight batch or compaction.
package delta

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("delta: store closed")

// Op distinguishes the two update kinds.
type Op uint8

const (
	// Insert adds edge (U,V) (with weight W on weighted stores); on an
	// edge that already exists it is a weight change (or a no-op when
	// the weight matches).
	Insert Op = iota
	// Delete removes edge (U,V); deleting an absent edge is a no-op.
	Delete
)

// Update is one edge mutation. On undirected stores it applies to the
// {U,V} edge (both arcs); self-loops are dropped, matching the builder
// invariants of package graph.
type Update struct {
	U, V uint32
	W    uint32
	Op   Op
}

// Result summarizes one applied batch.
type Result struct {
	// Epoch is the epoch that holds the batch's effects. A batch that
	// canonicalized to nothing publishes no new epoch and returns the
	// current one.
	Epoch uint64
	// Applied counts the arcs whose effective state changed (presence
	// or weight). Undirected edges count both arcs.
	Applied int
}

// Options configures a Store. The zero value selects defaults.
type Options struct {
	// CompactFraction triggers background compaction when the patch
	// holds more than CompactFraction × base arcs. 0 selects the
	// default (0.25); negative disables auto-compaction (Compact can
	// still be called explicitly).
	CompactFraction float64
}

// DefaultCompactFraction is the auto-compaction threshold: patch arcs
// as a fraction of base arcs.
const DefaultCompactFraction = 0.25

// epochState is one published graph version. refs counts pinned
// snapshots; the current epoch is additionally kept alive by being
// current. An epoch retires — drops out of the live set, freeing its
// overlay for collection — when it is no longer current and its last
// snapshot releases.
type epochState struct {
	epoch uint64
	view  graph.Adjacency // *graph.Graph (post-build/compaction) or *graph.Overlay
	refs  int
}

// Store is the mutable graph: an immutable base CSR, a patch overlay,
// and the epoch list. All methods are safe for concurrent use.
type Store struct {
	n        int
	directed bool
	weighted bool

	// writeMu serializes the writers (Apply, Compact) and guards the
	// writer-owned state base and ov.
	writeMu sync.Mutex
	base    *graph.Graph
	ov      *graph.Overlay // current patch over base (possibly empty)

	// mu guards the published view and the bookkeeping below; it is
	// never held while building, so Snapshot/Release stay O(1).
	mu         sync.Mutex
	cur        *epochState
	live       map[uint64]*epochState
	closed     bool
	compacting bool

	batches     uint64
	appliedArcs uint64
	compactions uint64
	retired     uint64

	compactFrac float64
	bgWG        sync.WaitGroup
}

// NewStore wraps g as epoch 0 of a mutable store. The store captures
// g — per the package graph immutability contract the caller must not
// modify it afterwards (the store itself never does: every later epoch
// is an overlay over it or a freshly built CSR).
func NewStore(g *graph.Graph, opt Options) *Store {
	frac := opt.CompactFraction
	if frac == 0 {
		frac = DefaultCompactFraction
	}
	s := &Store{
		n:           g.N,
		directed:    g.Directed,
		weighted:    g.Weighted(),
		base:        g,
		ov:          graph.EmptyOverlay(g),
		live:        map[uint64]*epochState{},
		compactFrac: frac,
	}
	s.cur = &epochState{epoch: 0, view: g}
	s.live[0] = s.cur
	return s
}

// NumVertices returns the (fixed) vertex count.
func (s *Store) NumVertices() int { return s.n }

// IsDirected reports the store's arc orientation.
func (s *Store) IsDirected() bool { return s.directed }

// HasWeights reports whether edges carry weights.
func (s *Store) HasWeights() bool { return s.weighted }

// Snapshot pins the current epoch and returns a handle to its
// immutable view. Every Snapshot must be paired with exactly one
// Release; pasgal-vet's epoch-misuse rule flags handles used after
// their Release.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	es := s.cur
	es.refs++
	s.mu.Unlock()
	return &Snapshot{store: s, es: es}
}

// Snapshot is a pinned epoch: an immutable graph view that stays valid
// (and identical) until Release, regardless of concurrent Apply or
// Compact calls.
type Snapshot struct {
	store    *Store
	es       *epochState
	released atomic.Bool
}

// Adj returns the epoch's graph view. It panics if the snapshot was
// already released — a released epoch may have retired.
func (sn *Snapshot) Adj() graph.Adjacency {
	if sn.released.Load() {
		panic("delta: snapshot used after Release")
	}
	return sn.es.view
}

// Epoch returns the pinned epoch number.
func (sn *Snapshot) Epoch() uint64 { return sn.es.epoch }

// Release unpins the epoch; when the last pin on a non-current epoch
// drops, the epoch retires and its memory becomes collectible. Release
// is idempotent.
func (sn *Snapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	s := sn.store
	s.mu.Lock()
	sn.es.refs--
	if sn.es.refs == 0 && sn.es != s.cur {
		delete(s.live, sn.es.epoch)
		s.retired++
	}
	s.mu.Unlock()
}

// rec is one normalized arc-level operation; pos is its place in the
// normalized batch, the tie-break that keeps the batch's last word on an
// arc last.
type rec struct {
	u, v uint32
	w    uint32
	ins  bool
	pos  int
}

// cell is the canonical patch state desired for one (u,v) after a
// batch: del tombstones a base arc, add contributes a patch arc. The
// five reachable combinations encode exactly the effective states
// expressible over a fixed base (see desiredCell).
type cell struct {
	u, v     uint32
	del, add bool
	w        uint32
}

// Apply canonicalizes batch against the current state, folds the
// effective changes into a new patch overlay, and publishes it as a
// new epoch. Updates that change nothing (inserting a present edge,
// deleting an absent one, within-batch cancellation) are dropped; a
// batch that drops entirely publishes no epoch. Out-of-range vertex
// ids fail the whole batch.
func (s *Store) Apply(batch []Update) (Result, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	epoch := s.cur.epoch
	s.mu.Unlock()
	if closed {
		return Result{}, ErrClosed
	}
	for _, u := range batch {
		if u.U >= uint32(s.n) || u.V >= uint32(s.n) {
			return Result{Epoch: epoch}, fmt.Errorf("delta: update (%d,%d) out of range n=%d", u.U, u.V, s.n)
		}
	}

	cells := s.canonicalize(batch)
	s.mu.Lock()
	s.batches++
	s.mu.Unlock()
	if len(cells) == 0 {
		return Result{Epoch: epoch}, nil
	}

	s.ov = s.mergePatch(cells)
	newEpoch := s.publish(s.ov)
	s.mu.Lock()
	s.appliedArcs += uint64(len(cells))
	s.mu.Unlock()
	s.maybeCompact()
	return Result{Epoch: newEpoch, Applied: len(cells)}, nil
}

// canonicalize normalizes a batch to the per-arc cells that actually
// change effective state: undirected edges expand to both arcs,
// self-loops drop, within-batch conflicts resolve last-op-wins, and
// each survivor is diffed against the current base+patch state. The
// result is sorted by (u,v) and duplicate-free.
func (s *Store) canonicalize(batch []Update) []cell {
	recs := make([]rec, 0, 2*len(batch))
	for _, up := range batch {
		if up.U == up.V {
			continue
		}
		w := up.W
		if !s.weighted {
			w = 0
		}
		recs = append(recs, rec{u: up.U, v: up.V, w: w, ins: up.Op == Insert, pos: len(recs)})
		if !s.directed {
			recs = append(recs, rec{u: up.V, v: up.U, w: w, ins: up.Op == Insert, pos: len(recs)})
		}
	}
	if len(recs) == 0 {
		return nil
	}
	key := func(r rec) uint64 { return uint64(r.u)<<32 | uint64(r.v) }
	parallel.SortFunc(recs, func(a, b rec) bool {
		ka, kb := key(a), key(b)
		return ka < kb || ka == kb && a.pos < b.pos
	})
	// Last op per key wins (ties sort by position, so the last element
	// of each equal-key run is the batch's last word on that arc).
	uniq := recs[:0]
	for i, r := range recs {
		if i+1 < len(recs) && key(recs[i+1]) == key(r) {
			continue
		}
		uniq = append(uniq, r)
	}

	// Diff each survivor against the current effective state; keep only
	// real changes.
	changed := make([]bool, len(uniq))
	cells := make([]cell, len(uniq))
	parallel.For(len(uniq), 64, func(i int) {
		r := uniq[i]
		c := s.desiredCell(r)
		cells[i] = c
		curDel, curAdd, curW := s.patchCell(r.u, r.v)
		changed[i] = c.del != curDel || c.add != curAdd || (c.add && c.w != curW)
	})
	out := cells[:0]
	for i, c := range cells {
		if changed[i] {
			out = append(out, c)
		}
	}
	return out
}

// desiredCell maps one normalized op to the canonical patch cell for
// its arc, given the base: a present arc matching the base (same
// weight) is cell (del=false, add=false); a present arc differing from
// the base is tombstone+add; an arc absent from the base is a bare
// add; a deleted base arc is a bare tombstone; deleting a non-base arc
// clears the cell.
func (s *Store) desiredCell(r rec) cell {
	idx := s.base.FindArc(r.u, r.v)
	inBase := idx != ^uint64(0)
	c := cell{u: r.u, v: r.v, w: r.w}
	if !r.ins {
		c.del = inBase
		c.w = 0
		return c
	}
	if inBase && (!s.weighted || s.base.Weights[idx] == r.w) {
		return c // present via the base untouched
	}
	c.del = inBase
	c.add = true
	return c
}

// patchCell reads the current patch state of (u,v).
func (s *Store) patchCell(u, v uint32) (del, add bool, w uint32) {
	dels := s.ov.Deleted(u)
	adds, addW := s.ov.Added(u)
	del = containsSorted(dels, v)
	if i := searchSorted(adds, v); i < len(adds) && adds[i] == v {
		add = true
		if addW != nil {
			w = addW[i]
		}
	}
	return del, add, w
}

func searchSorted(s []uint32, x uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func containsSorted(s []uint32, x uint32) bool {
	i := searchSorted(s, x)
	return i < len(s) && s[i] == x
}

// mergePatch builds the next overlay: the current patch arrays with
// the changed cells overriding their keys. Both inputs are sorted per
// vertex, so each vertex is one linear merge; the count and fill
// passes run vertex-parallel over disjoint output ranges.
func (s *Store) mergePatch(cells []cell) *graph.Overlay {
	n := s.n
	cOff := make([]uint64, n+1)
	for _, c := range cells {
		cOff[c.u+1]++
	}
	for v := 0; v < n; v++ {
		cOff[v+1] += cOff[v]
	}

	addDeg := make([]int64, n+1)
	delDeg := make([]int64, n+1)
	parallel.For(n, 256, func(vi int) {
		v := uint32(vi)
		adds, _ := s.ov.Added(v)
		dels := s.ov.Deleted(v)
		vc := cells[cOff[v]:cOff[v+1]]
		a, d := int64(len(adds)), int64(len(dels))
		for _, c := range vc {
			if containsSorted(adds, c.v) {
				a--
			}
			if c.add {
				a++
			}
			if containsSorted(dels, c.v) {
				d--
			}
			if c.del {
				d++
			}
		}
		addDeg[vi], delDeg[vi] = a, d
	})
	addTotal := parallel.Scan(addDeg[:n])
	delTotal := parallel.Scan(delDeg[:n])
	addOff := make([]uint64, n+1)
	delOff := make([]uint64, n+1)
	parallel.For(n, 0, func(v int) {
		addOff[v] = uint64(addDeg[v])
		delOff[v] = uint64(delDeg[v])
	})
	addOff[n] = uint64(addTotal)
	delOff[n] = uint64(delTotal)
	newAdds := make([]uint32, addTotal)
	var newAddW []uint32
	if s.weighted {
		newAddW = make([]uint32, addTotal)
	}
	newDels := make([]uint32, delTotal)

	parallel.For(n, 64, func(vi int) {
		v := uint32(vi)
		adds, addW := s.ov.Added(v)
		dels := s.ov.Deleted(v)
		vc := cells[cOff[v]:cOff[v+1]]

		at := addOff[v]
		ai, ci := 0, 0
		for ai < len(adds) || ci < len(vc) {
			switch {
			case ci == len(vc) || (ai < len(adds) && adds[ai] < vc[ci].v):
				newAdds[at] = adds[ai]
				if newAddW != nil {
					newAddW[at] = addW[ai]
				}
				at++
				ai++
			case ai == len(adds) || vc[ci].v < adds[ai]:
				if vc[ci].add {
					newAdds[at] = vc[ci].v
					if newAddW != nil {
						newAddW[at] = vc[ci].w
					}
					at++
				}
				ci++
			default: // equal: the cell overrides the old entry
				if vc[ci].add {
					newAdds[at] = vc[ci].v
					if newAddW != nil {
						newAddW[at] = vc[ci].w
					}
					at++
				}
				ai++
				ci++
			}
		}

		dt := delOff[v]
		di, ci := 0, 0
		for di < len(dels) || ci < len(vc) {
			switch {
			case ci == len(vc) || (di < len(dels) && dels[di] < vc[ci].v):
				newDels[dt] = dels[di]
				dt++
				di++
			case di == len(dels) || vc[ci].v < dels[di]:
				if vc[ci].del {
					newDels[dt] = vc[ci].v
					dt++
				}
				ci++
			default:
				if vc[ci].del {
					newDels[dt] = vc[ci].v
					dt++
				}
				di++
				ci++
			}
		}
	})
	return graph.NewOverlay(s.base, addOff, newAdds, newAddW, delOff, newDels)
}

// publish installs view as the next epoch and retires the previous one
// if nothing pins it.
func (s *Store) publish(view graph.Adjacency) uint64 {
	s.mu.Lock()
	old := s.cur
	es := &epochState{epoch: old.epoch + 1, view: view}
	s.cur = es
	s.live[es.epoch] = es
	if old.refs == 0 {
		delete(s.live, old.epoch)
		s.retired++
	}
	s.mu.Unlock()
	return es.epoch
}

// Compact installs the overlay's Materialize as the next base CSR (its
// merged per-vertex scans already emit sorted, deduplicated lists) and
// publishes it as a new epoch. Snapshots pinned on older epochs keep
// their overlay views — the old base is captured inside them and is
// never modified. With an empty patch it is a no-op.
func (s *Store) Compact() (uint64, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	epoch := s.cur.epoch
	s.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if s.ov.PatchArcs() == 0 {
		return epoch, nil
	}
	newBase := s.ov.Materialize()
	s.base = newBase
	s.ov = graph.EmptyOverlay(newBase)
	newEpoch := s.publish(newBase)
	s.mu.Lock()
	s.compactions++
	s.mu.Unlock()
	return newEpoch, nil
}

// maybeCompact starts a background compaction when the patch outgrew
// the configured fraction of the base. At most one runs at a time.
func (s *Store) maybeCompact() {
	if s.compactFrac <= 0 {
		return
	}
	baseArcs := s.base.M()
	if baseArcs == 0 {
		baseArcs = 1
	}
	if float64(s.ov.PatchArcs()) <= s.compactFrac*float64(baseArcs) {
		return
	}
	s.mu.Lock()
	if s.closed || s.compacting {
		s.mu.Unlock()
		return
	}
	s.compacting = true
	s.bgWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.bgWG.Done()
		_, _ = s.Compact() // a close racing in drops the compaction by design
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
}

// Close rejects further mutation and waits for any background
// compaction to finish. Outstanding snapshots stay valid — readers
// finish on their pinned epochs.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.bgWG.Wait()
}

// Stats is a point-in-time snapshot of store bookkeeping.
type Stats struct {
	Epoch       uint64 // current epoch number
	LiveEpochs  int    // epochs not yet retired (current included)
	Batches     uint64 // Apply calls accepted
	AppliedArcs uint64 // effective arc changes across all batches
	Compactions uint64 // compactions completed
	Retired     uint64 // epochs retired
	BaseArcs    int    // arcs in the current epoch's base CSR
	PatchArcs   int    // adds+tombstones in the current epoch's patch
}

// Stats reports current bookkeeping. It reads only published state, so
// it is safe (and non-blocking) alongside writers.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Epoch:       s.cur.epoch,
		LiveEpochs:  len(s.live),
		Batches:     s.batches,
		AppliedArcs: s.appliedArcs,
		Compactions: s.compactions,
		Retired:     s.retired,
	}
	switch v := s.cur.view.(type) {
	case *graph.Overlay:
		st.BaseArcs = v.Base().M()
		st.PatchArcs = v.PatchArcs()
	default:
		st.BaseArcs = s.cur.view.NumArcs()
	}
	return st
}
