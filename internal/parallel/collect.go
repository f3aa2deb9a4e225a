package parallel

// Collect runs body over ForRange's grain-aligned chunks of [0,n), with
// ForRangeCancel's drain semantics (c may be nil; grain <= 0 selects an
// automatic chunk size), and returns what the chunks emitted, concatenated
// in chunk order. Each call receives a nil list, appends the ids it owns
// and returns the list; Collect keeps it at index lo/grain, then joins the
// lists with a prefix sum of their lengths and one copy, parallel from
// SeqCutoff entries up.
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
	// The offsets are a serial prefix sum: one add per chunk is small
	// beside the grain's worth of body work each chunk did, and it saves
	// Scan's two launches, which dominate the small frontiers of a
	// large-diameter graph. Below SeqCutoff entries the copy runs inline
	// for the same reason.
	offs := make([]int, chunks)
	total := 0
	for i, l := range lists {
		offs[i] = total
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]uint32, total)
	copyGrain := chunks // one chunk: inline
	if total >= SeqCutoff {
		copyGrain = 0
	}
	ForRange(chunks, copyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out[offs[i]:], lists[i])
		}
	})
	return out
}
