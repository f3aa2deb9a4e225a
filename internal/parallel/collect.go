package parallel

import "slices"

// Collect runs body over ForRange's grain-aligned chunks of [0,n), with
// ForRangeCancel's drain semantics (c may be nil; grain <= 0 selects an
// automatic chunk size), and returns what the chunks emitted, concatenated
// in chunk order. Each call receives a nil list, appends the ids it owns
// and returns the list; Collect keeps it at index lo/grain, then joins the
// lists with Concat.
//
// It is the frontier for outputs with one writer per entry — a bottom-up
// round emitting the vertex it scanned, a push whose CAS alone decides who
// emits a vertex — where a concurrent set (internal/hashbag) would pay a
// hashed CAS per entry for duplicates that cannot occur. After c fires the
// drained chunks contribute nothing, so the result is partial.
func Collect(c *Cancel, n, grain int, body func(lo, hi int, out []uint32) []uint32) []uint32 {
	if n <= 0 || c.Canceled() {
		return nil
	}
	if grain <= 0 {
		grain = defaultGrain(n, Workers())
	}
	chunks := (n + grain - 1) / grain
	lists := make([][]uint32, chunks)
	ForRangeTeam(c, n, grain, nil, func(_, lo, hi int) {
		lists[lo/grain] = body(lo, hi, nil)
	})
	if chunks == 1 {
		return lists[0]
	}
	return Concat(nil, chunks, func(i int) []uint32 { return lists[i] })
}

// Concat appends list(0), …, list(n-1) to dst, in index order, and
// returns it. Below SeqCutoff entries it appends inline: a launch, and
// the offsets it needs, would cost more than the copy on the small
// frontiers of a large-diameter graph. From SeqCutoff up the offsets are a
// serial prefix sum (one add per list, no Scan launches) and the lists
// are copied in parallel, each to its offset.
func Concat(dst []uint32, n int, list func(i int) []uint32) []uint32 {
	total := 0
	for i := 0; i < n; i++ {
		total += len(list(i))
	}
	dst = slices.Grow(dst, total)
	if total < SeqCutoff {
		for i := 0; i < n; i++ {
			dst = append(dst, list(i)...)
		}
		return dst
	}
	offs := make([]int, n)
	at := len(dst)
	for i := range offs {
		offs[i] = at
		at += len(list(i))
	}
	out := dst[:at]
	ForRange(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out[offs[i]:], list(i))
		}
	})
	return out
}
