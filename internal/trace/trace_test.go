package trace

import (
	"testing"
)

// TestNilTracerIsSafe: every recording and query method must be a no-op on
// a nil receiver — that is the contract the whole library relies on when
// tracing is disabled.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Round("bfs", 1, 10)
	tr.DirectionSwitch("bfs", 1)
	tr.Phase("scc", 1, -1)
	tr.Cancel("bfs", 2)
	tr.LaneScans(5)
	tr.Loop(4, 32)
	tr.LoopInline()
	tr.Steal()
	tr.Park()
	tr.Wake(3)
	tr.Reset()
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer Events() = %v, want nil", got)
	}
	if got := tr.CounterValue(CtrRounds); got != 0 {
		t.Fatalf("nil tracer counter = %d, want 0", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer reported drops")
	}
	s := tr.Snapshot()
	if s.Events != 0 || len(s.Counter) != 0 {
		t.Fatalf("nil tracer snapshot = %+v, want empty", s)
	}
}

func TestCountersAndEvents(t *testing.T) {
	tr := New()
	tr.Round("bfs", 1, 1)
	tr.Round("bfs", 2, 8)
	tr.DirectionSwitch("bfs", 2)
	tr.Phase("scc", 1, 42)
	tr.Cancel("scc", 1)
	tr.LaneScans(7)
	tr.LaneScans(0) // must not count
	tr.Loop(4, 32)
	tr.Loop(2, 2)
	tr.LoopInline()
	tr.Steal()
	tr.Steal()
	tr.Park()
	tr.Wake(2)
	tr.Wake(1)

	want := map[Counter]int64{
		CtrRounds: 2, CtrBottomUp: 1, CtrPhases: 1, CtrCancels: 1,
		CtrLaneScans: 7, CtrLoops: 2, CtrForks: 6, CtrInlineLoops: 1,
		CtrSteals: 2, CtrParks: 1, CtrWakes: 3,
	}
	for c, v := range want {
		if got := tr.CounterValue(c); got != v {
			t.Errorf("counter %s = %d, want %d", c.Name(), got, v)
		}
	}

	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5 (counter-only calls must not emit)", len(evs))
	}
	// Emission order and monotone timestamps.
	wantKinds := []Kind{KindRound, KindRound, KindDirSwitch, KindPhase, KindCancel}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if i > 0 && ev.TS < evs[i-1].TS {
			t.Fatalf("timestamps not monotone at %d", i)
		}
	}
	if evs[1].A != 2 || evs[1].B != 8 {
		t.Fatalf("round event payload = (%d,%d), want (2,8)", evs[1].A, evs[1].B)
	}

	bfs := tr.EventsFor("bfs")
	if len(bfs) != 3 {
		t.Fatalf("EventsFor(bfs) = %d events, want 3", len(bfs))
	}
}

func TestRingCapAndDrop(t *testing.T) {
	tr := NewWithCap(4)
	for i := 0; i < 10; i++ {
		tr.Round("bfs", int64(i+1), 1)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("ring holds %d events, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	// The kept events are the prefix.
	for i, ev := range tr.Events() {
		if ev.A != int64(i+1) {
			t.Fatalf("event %d round = %d, want %d (prefix must be kept)", i, ev.A, i+1)
		}
	}
	// Counters keep counting past the ring cap.
	if got := tr.CounterValue(CtrRounds); got != 10 {
		t.Fatalf("rounds counter = %d, want 10", got)
	}
}

func TestReset(t *testing.T) {
	tr := New()
	tr.Round("bfs", 1, 1)
	tr.LaneScans(3)
	tr.Reset()
	if len(tr.Events()) != 0 || tr.CounterValue(CtrRounds) != 0 ||
		tr.CounterValue(CtrLaneScans) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := NewWithCap(1 << 12)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				tr.Round("bfs", int64(i), int64(i))
				tr.LaneScans(1)
				tr.Loop(2, 4)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if got := tr.CounterValue(CtrRounds); got != 4000 {
		t.Fatalf("rounds = %d, want 4000", got)
	}
	if got := len(tr.Events()) + int(tr.Dropped()); got != 4000 {
		t.Fatalf("events+dropped = %d, want 4000", got)
	}
}
