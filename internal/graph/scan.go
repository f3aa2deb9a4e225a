package graph

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
//
// Because the plain case aliases Graph.Edges/Weights, callers must treat
// the returned slices as read-only and must never append to them. Scratch
// comes from Scratch(), once per parallel chunk, and is passed by value:
// a list that outgrows it is decoded into fresh memory for that call only.
//
// Three properties the kernels' speed depends on (each measured on the
// BFS/SSSP cells; see DESIGN.md §2.9):
//
//   - Neighbors stays within the compiler's inlining budget — which is why
//     the decode path sits in a separate noinline method and the
//     discriminant is a bool, not a nil check.
//   - A Scanner is handed out as a pointer to its own cache lines: every
//     scanned vertex reads this header, and a run allocates it next to the
//     small objects its workers hammer with atomics (metrics, loop chunk
//     cursors; BFS's pending counter when this was measured), so an
//     unpadded header — whether captured by value in a round closure or
//     moved to the heap — shared a line with one of them and cost the
//     plain-CSR kernels 3–13 %.
//   - Scratch stays on the chunk's stack: the decode targets are concrete
//     pointers, not an interface, and buffers travel by value, so escape
//     analysis can see that a buffer only flows to the returned list. A
//     heap buffer grown from nil per chunk (chunks can be one frontier
//     vertex) cost SSSP on a .pz graph 19 %.
type Scanner struct {
	flat  bool // plain CSR: lists are off/edges/wts sub-slices
	off   []uint64
	edges []uint32
	wts   []uint32
	c     *Compressed // else exactly one of c, o is set
	o     *Overlay

	// Rounds the 96-byte header up to the allocator's 128-byte size
	// class, whose objects start on 128-byte boundaries.
	_ [32]byte
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
	}
	panic("graph: unknown Adjacency representation")
}

// Scratch returns a decode buffer for one parallel chunk: nil for plain
// CSR, which never decodes. It inlines, so the buffer lives in the
// caller's frame and is only cleared when the representation needs it.
func (s *Scanner) Scratch() []uint32 {
	if s.flat {
		return nil
	}
	return make([]uint32, 0, 256)
}

// Neighbors returns v's neighbor list, decoding into buf[:0] when the
// representation has no flat list to alias. Inlining cost 79 of 80 under
// go1.24: check `go build -gcflags=-m` after touching it.
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
// into nbuf[:0] and wbuf[:0]. The graph must carry weights. Two slice
// results plus the decode calls are past the inlining budget, so this is
// one direct call per vertex.
func (s *Scanner) Arcs(v uint32, nbuf, wbuf []uint32) (nbrs, wts []uint32) {
	if s.flat {
		lo, hi := s.off[v], s.off[v+1]
		return s.edges[lo:hi], s.wts[lo:hi]
	}
	if s.c != nil {
		return s.c.AppendArcs(v, nbuf[:0], wbuf[:0])
	}
	return s.o.AppendArcs(v, nbuf[:0], wbuf[:0])
}
