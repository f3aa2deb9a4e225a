package graph

import "slices"

// Scanner produces one vertex's neighbor list, whichever representation
// is behind it. Kernels build one per run (ScanOut for push-direction
// scans, ScanIn for pull) and range over what Neighbors/Arcs return, so
// every round body exists once; ScanOut and ScanIn are the only place
// that switches on the concrete representation.
//
// Plain CSR lists are returned as sub-slices of the graph's own arrays
// behind one branch that predicts perfectly, since a run never changes
// representation. Compressed and Overlay lists are decoded (or merged)
// whole into the caller's scratch by one AppendNeighbors/AppendArcs call
// per vertex; an early-exit scan pays for the arcs past its exit, which
// measured cheaper than a call-per-arc streaming cursor (see Adjacency).
// Under UniformWeights, Arcs hashes each weight (hashArcs): no weighted
// copy exists, and stored plain weights stay Arcs' first test.
//
// Because the plain case aliases Graph.Edges/Weights, callers must treat
// the returned slices as read-only and must never append to them. Scratch
// comes from Scratch(), once per parallel chunk, or — inside the VGC
// local-search operator (core.localSearch), whose chunks hand it to a
// func value — from that operator's per-participant buffers, made once
// per run. Either way it is passed by value: a list that outgrows it is
// decoded into fresh memory for that call only.
//
// Three properties the kernels' speed depends on (each measured on the
// BFS/SSSP cells; see DESIGN.md §2.9):
//
//   - Neighbors stays within the compiler's inlining budget — which is why
//     the decode path sits in a separate noinline method and the
//     discriminant is a bool, not a nil check (scripts/check.sh checks).
//   - A Scanner is handed out as a pointer to its own cache lines: every
//     scanned vertex reads this header, and a run allocates it next to the
//     small objects its workers hammer with atomics (metrics, loop chunk
//     cursors; BFS's pending counter when this was measured), so an
//     unpadded header — whether captured by value in a round closure or
//     moved to the heap — shared a line with one of them and cost the
//     plain-CSR kernels 3–13 %.
//   - Scratch is not allocated per chunk. From Scratch() it stays on the
//     chunk's stack: the decode targets are concrete pointers, not an
//     interface, and buffers travel by value, so escape analysis can see
//     that a buffer only flows to the returned list. A heap buffer grown
//     from nil per chunk (chunks can be one frontier vertex) cost SSSP on
//     a .pz graph 19 %.
type Scanner struct {
	flat  bool // plain CSR: lists are off/edges(/wts) sub-slices
	off   []uint64
	edges []uint32
	wts   []uint32    // non-nil iff plain CSR with stored weights
	c     *Compressed // else exactly one of c, o is set
	o     *Overlay
	u     *uniform // non-nil: Arcs hashes the weights (hashArcs)

	// Rounds the 104-byte header up to the allocator's 128-byte size
	// class, whose objects start on 128-byte boundaries.
	_ [24]byte
}

// ScanOut returns a Scanner over a's out-neighbor lists.
func ScanOut(a Adjacency) *Scanner {
	switch r := a.(type) {
	case *Graph:
		return &Scanner{flat: true, off: r.Offsets, edges: r.Edges, wts: r.Weights}
	case *Compressed:
		return &Scanner{c: r}
	case *Overlay:
		return &Scanner{o: r}
	case *uniform:
		s := ScanOut(r.Adjacency)
		s.u = r
		return s
	}
	panic("graph: unknown Adjacency representation")
}

// ScanIn returns a Scanner over a's in-neighbor lists: ScanOut of the
// lazily built, cached transpose (a itself when undirected). Kernels call
// it only when a pull round can actually happen, so push-only runs never
// pay for a transpose — which for an mmap-backed Compressed is a
// decompress → transpose → recompress into fresh memory.
func ScanIn(a Adjacency) *Scanner {
	switch r := a.(type) {
	case *Graph:
		return ScanOut(r.Transpose())
	case *Compressed:
		return ScanOut(r.Transpose())
	case *Overlay:
		return ScanOut(r.Transpose())
	case *uniform:
		s := ScanIn(r.Adjacency) // weights are symmetric in the endpoints
		s.u = r
		return s
	}
	panic("graph: unknown Adjacency representation")
}

// Scratch returns a buffer for one parallel chunk: nil for plain CSR
// unless Arcs hashes weights into it. It inlines, so the buffer lives in
// the caller's frame and is only cleared when the representation needs it.
func (s *Scanner) Scratch() []uint32 {
	if s.flat && s.u == nil {
		return nil
	}
	return make([]uint32, 0, 256)
}

// Neighbors returns v's neighbor list, decoding into buf[:0] when the
// representation has no flat list to alias. Inlining cost 79 of 80 under
// go1.24; scripts/check.sh checks that it still inlines.
func (s *Scanner) Neighbors(v uint32, buf []uint32) []uint32 {
	if s.flat {
		return s.edges[s.off[v]:s.off[v+1]]
	}
	return s.decode(v, buf)
}

//go:noinline
func (s *Scanner) decode(v uint32, buf []uint32) []uint32 {
	if s.c != nil {
		return s.c.AppendNeighbors(v, buf[:0])
	}
	return s.o.AppendNeighbors(v, buf[:0])
}

// Arcs returns v's neighbor list and the parallel weight list, decoding
// into nbuf[:0] and wbuf[:0]. The graph must carry weights, stored or
// from UniformWeights. Two slice results plus the decode calls are past
// the inlining budget, so this is one direct call per vertex.
func (s *Scanner) Arcs(v uint32, nbuf, wbuf []uint32) (nbrs, wts []uint32) {
	if s.wts != nil {
		lo, hi := s.off[v], s.off[v+1]
		return s.edges[lo:hi], s.wts[lo:hi]
	}
	if s.u != nil {
		return s.hashArcs(v, nbuf, wbuf)
	}
	if s.c != nil {
		return s.c.AppendArcs(v, nbuf[:0], wbuf[:0])
	}
	return s.o.AppendArcs(v, nbuf[:0], wbuf[:0])
}

// hashArcs is Arcs under UniformWeights: v's list as Neighbors returns
// it, and UniformWeight of each arc, bit for bit, in wbuf (grown at most
// once). v's two possible hash terms are hoisted out of the loop, the
// endpoint order is picked without a branch, and a power-of-two span
// masks instead of dividing.
func (s *Scanner) hashArcs(v uint32, nbuf, wbuf []uint32) ([]uint32, []uint32) {
	nbrs := s.Neighbors(v, nbuf)
	wts := slices.Grow(wbuf[:0], len(nbrs))[:len(nbrs)]
	u := s.u
	asMin, asMax := u.seed^hash64(uint64(v)+minKey), u.seed^hash64(uint64(v)+maxKey)
	pow2, mask := u.span&(u.span-1) == 0, u.span-1
	for i, x := range nbrs {
		h, k := asMin, uint64(maxKey)
		if x < v {
			h, k = asMax, minKey
		}
		r := hash64(h ^ hash64(uint64(x)+k))
		if pow2 {
			r &= mask
		} else {
			r %= u.span
		}
		wts[i] = u.lo + uint32(r)
	}
	return nbrs, wts
}
