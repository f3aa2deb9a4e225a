package core

import "pasgal/internal/parallel"

// localSearch is the VGC operator (the package comment; DESIGN.md §2.1).
// BFS's top-down rounds, the stepping driver behind SSSP and
// point-to-point, propagate and the k-core peel hand it their rounds and
// keep only their relax rule. A run owns one, and with it each
// participant's scratch for the whole run.
type localSearch struct {
	team []*scratch // by parallel.ForRangeTeam's participant index
	met  *Metrics
	cl   *Canceler
}

// scratch is one participant's working memory. It is on the heap for the
// run, not on a chunk's stack: a buffer handed to the visit func value
// escapes (the call is indirect), and a chunk is one frontier vertex, so
// a chunk-stack buffer would be one allocation per vertex (DESIGN.md
// §2.9, trap 4).
type scratch struct {
	queue []uint32 // the FIFO worklist: visit appends what it discovers
	nbuf  []uint32 // Neighbors/Arcs target (k-core: the out-list)
	wbuf  []uint32 // Arcs' weight target (k-core: the in-list)
	mbuf  []uint32 // k-core's out ∪ in union, kept grown for the run
	edges int64    // arcs visited this round

	// Rounds the 104-byte struct up to the allocator's 128-byte size
	// class, so no two participants' worklist headers share a line.
	_ [24]byte
}

// grow gives participants [0, k) scratch; ForRangeTeam calls it on the
// launching goroutine before any chunk runs.
func (ls *localSearch) grow(k int) {
	for len(ls.team) < k {
		ls.team = append(ls.team, &scratch{queue: make([]uint32, 0, 64),
			nbuf: make([]uint32, 0, 256), wbuf: make([]uint32, 0, 256)})
	}
}

// round runs one local search from every entry of f with live(i) true
// (live may be nil), one grain-1 chunk per entry. The worklist is FIFO, so
// a search is a mini-BFS: tentative distances stay close to final and
// redundant re-relaxation is rare (a LIFO search would chase depth-first
// chains of inflated distances and repair them over and over).
//
// visit(u, s), the kernel's relax rule, is called once per worklist
// vertex: it scans u's arcs with s's buffers, appends each vertex it
// discovers to s.queue, and returns the arcs it scanned (0 if it skips
// u). Once a search has scanned budget arcs, the unvisited tail of its
// worklist goes to spill, the kernel's shared-frontier insert, and the
// search ends; with budget <= 0 the root is visited and all it discovers
// is spilled. The round's arc count reaches Metrics once, after the join.
func (ls *localSearch) round(f []uint32, budget int, live func(i int) bool,
	visit func(u uint32, s *scratch) int, spill func(w uint32)) {
	parallel.ForRangeTeam(ls.cl.Token(), len(f), 1, ls.grow, func(p, lo, hi int) {
		s := ls.team[p]
		for i := lo; i < hi; i++ {
			if live != nil && !live(i) {
				continue
			}
			s.queue = append(s.queue[:0], f[i])
			left := budget
			for head := 0; head < len(s.queue); head++ {
				k := visit(s.queue[head], s)
				s.edges += int64(k)
				if left -= k; left <= 0 && head+1 < len(s.queue) {
					for _, w := range s.queue[head+1:] {
						spill(w)
					}
					s.queue = s.queue[:head+1]
				}
			}
		}
	})
	var edges int64
	for _, s := range ls.team {
		edges, s.edges = edges+s.edges, 0
	}
	ls.met.AddEdges(edges)
}
