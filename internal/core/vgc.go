package core

import "pasgal/internal/parallel"

// localSearch is the VGC operator (the package comment; DESIGN.md §2.1).
// BFS's top-down rounds, the stepping driver behind SSSP and
// point-to-point, propagate and the k-core peel hand it their rounds and
// keep only their relax rule. A run owns one, and with it each
// participant's scratch and frontier lists for the whole run. Every
// frontier insert has one owner, the participant whose CAS or label write
// discovered the vertex, so it appends to a list of that participant's
// own, one per slot (a next frontier, SSSP's far set, a BFS bucket), and
// take joins the participants' lists by offsets (DESIGN.md §2.2).
type localSearch struct {
	team  []*scratch // by parallel.ForRangeTeam's participant index
	slots int        // frontier lists per participant
	front []uint32   // next's buffer, reused every round
	met   *Metrics
	cl    *Canceler
}

// scratch is one participant's working memory. It is on the heap for the
// run, not on a chunk's stack: a buffer handed to the visit func value
// escapes (the call is indirect), and a chunk is one frontier vertex, so
// a chunk-stack buffer would be one allocation per vertex (DESIGN.md
// §2.9, trap 4). Its 128 bytes are a size class, so no two participants'
// headers share a cache line.
type scratch struct {
	queue []uint32   // the FIFO worklist: visit appends what it discovers
	nbuf  []uint32   // Neighbors/Arcs target (k-core: the out-list)
	wbuf  []uint32   // Arcs' weight target (k-core: the in-list)
	mbuf  []uint32   // k-core's out ∪ in union, kept grown for the run
	out   [][]uint32 // this participant's frontier lists, by slot
	edges int64      // arcs visited this round
}

// grow gives participants [0, k) scratch; ForRangeTeam calls it on the
// launching goroutine before any chunk runs. The slot headers get at
// least 192 bytes, a size class on cache-line boundaries, for the same
// reason.
func (ls *localSearch) grow(k int) {
	for len(ls.team) < k {
		ls.team = append(ls.team, &scratch{queue: make([]uint32, 0, 64),
			nbuf: make([]uint32, 0, 256), wbuf: make([]uint32, 0, 256),
			out: make([][]uint32, ls.slots, max(ls.slots, 8))})
	}
}

// each runs body over [0, n) in grain-sized chunks (grain <= 0: automatic),
// handing every chunk its participant's scratch, and adds the arcs the
// chunks counted in s.edges to Metrics once, after the join.
func (ls *localSearch) each(n, grain int, body func(s *scratch, lo, hi int)) {
	parallel.ForRangeTeam(ls.cl.Token(), n, grain, ls.grow, func(p, lo, hi int) {
		body(ls.team[p], lo, hi)
	})
	var edges int64
	for _, s := range ls.team {
		edges, s.edges = edges+s.edges, 0
	}
	ls.met.AddEdges(edges)
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
// worklist goes to spill(tail, s), which files it in s's lists, and the
// search ends; with budget <= 0 the root is visited and all it discovers
// is spilled.
func (ls *localSearch) round(f []uint32, budget int, live func(i int) bool,
	visit func(u uint32, s *scratch) int, spill func(tail []uint32, s *scratch)) {
	ls.each(len(f), 1, func(s *scratch, lo, hi int) {
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
					spill(s.queue[head+1:], s)
					s.queue = s.queue[:head+1]
				}
			}
		}
	})
}

// spillNext is round's spill for a kernel with one next frontier: the
// tail joins the participant's slot-0 list.
func spillNext(tail []uint32, s *scratch) { s.out[0] = append(s.out[0], tail...) }

// empty reports whether every participant's list for slot is empty.
func (ls *localSearch) empty(slot int) bool {
	for _, s := range ls.team {
		if len(s.out[slot]) > 0 {
			return false
		}
	}
	return true
}

// take appends every participant's list for slot to dst, in participant
// order (parallel.Concat), and empties them, keeping their capacity; a
// kernel calls it between rounds.
func (ls *localSearch) take(dst []uint32, slot int) []uint32 {
	dst = parallel.Concat(dst, len(ls.team), func(p int) []uint32 { return ls.team[p].out[slot] })
	for _, s := range ls.team {
		s.out[slot] = s.out[slot][:0]
	}
	return dst
}

// next is take into the operator's own buffer, valid until the next call.
func (ls *localSearch) next(slot int) []uint32 {
	ls.front = ls.take(ls.front[:0], slot)
	return ls.front
}
