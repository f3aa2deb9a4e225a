package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// team is one ForRangeTeam launch under test: the participant count start
// reported, and which indices chunks hold right now.
type team struct {
	t      *testing.T
	starts atomic.Int32
	k      atomic.Int32
	busy   [64]atomic.Int32 // by participant index; the tests use <= 8 workers
}

func (tm *team) start(k int) {
	tm.starts.Add(1)
	tm.k.Store(int32(k))
}

// enter checks that p is a valid index no running chunk holds, and marks
// it held until leave.
func (tm *team) enter(p int) {
	if tm.starts.Load() != 1 {
		tm.t.Errorf("chunk ran after %d start calls, want 1", tm.starts.Load())
	}
	if k := int(tm.k.Load()); p < 0 || p >= k {
		tm.t.Errorf("participant %d outside the reported team [0, %d)", p, k)
		return
	}
	if tm.busy[p].Add(1) != 1 {
		tm.t.Errorf("participant %d runs two chunks at once", p)
	}
}

func (tm *team) leave(p int) {
	if p >= 0 && p < int(tm.k.Load()) {
		tm.busy[p].Add(-1)
	}
}

// spin burns roughly d of wall time while yielding, so other participants
// get the CPU on an oversubscribed machine.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		runtime.Gosched()
	}
}

// TestForRangeTeamParticipants checks the participant index ForRangeTeam
// hands its body: below the count start reported, never held by two
// chunks at once — with every outer chunk launching a nested team of its
// own, and with stealing forced: the caller's first chunk (participant 0
// holds chunk 0) waits until the others have finished more chunks than
// their own ranges hold, which they can only do by stealing from its
// range.
func TestForRangeTeamParticipants(t *testing.T) {
	const n = 32
	for _, p := range []int{1, 2, 4, 8} {
		withWorkers(t, p, func() {
			for rep := 0; rep < 5; rep++ {
				before := SchedStats().Steals
				outer := &team{t: t}
				var done atomic.Int32
				ForRangeTeam(nil, n, 1, outer.start, func(q, lo, hi int) {
					outer.enter(q)
					defer outer.leave(q)
					if k := int(outer.k.Load()); lo == 0 && k > 1 {
						own0 := (n + k - 1) / k // chunks in participant 0's range
						deadline := time.Now().Add(10 * time.Second)
						for int(done.Load()) < n-own0+1 {
							if time.Now().After(deadline) {
								t.Errorf("workers=%d: helpers finished %d chunks, never stole from participant 0", p, done.Load())
								break
							}
							runtime.Gosched()
						}
					}
					inner := &team{t: t}
					ForRangeTeam(nil, 8, 1, inner.start, func(r, lo, hi int) {
						inner.enter(r)
						if lo%4 == 0 {
							spin(20 * time.Microsecond)
						}
						inner.leave(r)
					})
					done.Add(1)
				})
				if got := outer.starts.Load(); got != 1 {
					t.Fatalf("workers=%d: start called %d times, want 1", p, got)
				}
				if k := int(outer.k.Load()); k != min(p, n) {
					t.Fatalf("workers=%d: team of %d, want %d", p, k, min(p, n))
				}
				if p > 1 && SchedStats().Steals == before {
					t.Fatalf("workers=%d: no steal recorded", p)
				}
			}
		})
	}
}

// TestForRangeTeamInlineAndEmpty pins the edges: a one-chunk loop runs on
// the caller as participant 0 of a team of 1, and an empty or canceled
// loop calls neither start nor body.
func TestForRangeTeamInlineAndEmpty(t *testing.T) {
	withWorkers(t, 4, func() {
		tm := &team{t: t}
		var calls atomic.Int32
		ForRangeTeam(nil, 10, 100, tm.start, func(p, lo, hi int) {
			calls.Add(1) // one chunk: runs inline on the caller
			if p != 0 || lo != 0 || hi != 10 {
				t.Errorf("inline chunk (%d, %d, %d), want (0, 0, 10)", p, lo, hi)
			}
		})
		if calls.Load() != 1 || tm.k.Load() != 1 {
			t.Fatalf("inline loop: %d calls, team of %d; want 1 and 1", calls.Load(), tm.k.Load())
		}
		c := NewCancel()
		c.Fire(nil)
		for _, tc := range []struct {
			c *Cancel
			n int
		}{{nil, 0}, {c, 100}} {
			ForRangeTeam(tc.c, tc.n, 1, func(int) { t.Error("start called") }, func(int, int, int) { t.Error("body called") })
		}
	})
}
