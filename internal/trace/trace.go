// Package trace is the library's structured tracing layer: a zero-
// dependency, low-overhead recorder for the per-round behavior the paper's
// evaluation rests on — frontier growth under VGC, direction-optimization
// switches, SCC/SSSP phase structure, and fork-join scheduling volume.
//
// A *Tracer is nil-safe: every method on a nil receiver is a no-op, so
// algorithm code threads the tracer unconditionally (via core.Options) and
// the disabled path costs one pointer test. Counters are plain atomics;
// discrete events (rounds, phases, cancels) go into a bounded ring under a
// mutex — events are per-round, not per-edge, so the lock is cold.
//
// Three sinks render a recording: WriteRoundLog (human-readable),
// WriteJSONL (one JSON object per event), and WriteChromeTrace (the Chrome
// trace_event format, loadable in chrome://tracing or https://ui.perfetto.dev).
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one cumulative statistic.
type Counter int

// The counters. Round/phase/direction counts mirror core.Metrics (the
// trace invariant tests assert the two observability paths agree); the
// scheduler and lane counters have no Metrics equivalent and exist only
// here.
const (
	CtrRounds      Counter = iota // frontier extractions (= round events)
	CtrBottomUp                   // direction-optimized (bottom-up) rounds
	CtrPhases                     // outer phases (SCC peeling, SSSP θ steps)
	CtrLoops                      // parallel loop launches (join barriers)
	CtrForks                      // helper slots / fork arms published for stealing
	CtrInlineLoops                // loops that fit one chunk and ran inline
	CtrSteals                     // loop range halves and Do arms claimed by non-owners
	CtrParks                      // idle pool workers that blocked
	CtrWakes                      // wakeups issued to parked workers
	CtrCancels                    // runs stopped by cancellation or deadline
	CtrLaneScans                  // MS-BFS edge scans (each advances up to 64 lanes)
	numCounters
)

// counterNames must match the Counter constants in order.
var counterNames = [numCounters]string{
	"rounds", "bottom_up", "phases", "loops", "forks", "inline_loops",
	"steals", "parks", "wakes", "cancels", "lane_scans",
}

// Name returns the counter's snake_case name as used in the sinks.
func (c Counter) Name() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Kind classifies an Event.
type Kind uint8

// The event kinds.
const (
	KindRound     Kind = iota // one frontier extraction
	KindDirSwitch             // a round ran bottom-up (direction-optimized)
	KindPhase                 // one outer phase boundary
	KindCancel                // a run stopped early (cancellation/deadline)
)

// String names the kind as used in the sinks.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindDirSwitch:
		return "dir_switch"
	case KindPhase:
		return "phase"
	case KindCancel:
		return "cancel"
	}
	return "unknown"
}

// Event is one recorded occurrence. TS is nanoseconds since the tracer was
// created. The meaning of A and B depends on Kind:
//
//	KindRound:     A = round index (1-based), B = frontier size
//	KindDirSwitch: A = round index the switch applies to, B unused
//	KindPhase:     A = phase index (1-based), B = caller detail (or -1)
//	KindCancel:    A = rounds completed when the run stopped, B unused
type Event struct {
	TS   int64
	Kind Kind
	Algo string
	A, B int64
}

// DefaultEventCap bounds the event ring: recording stops (and Dropped
// counts) past this many events unless New was given a larger cap. 64Ki
// events * 48ish bytes is a few MiB — enough for every workload in the
// registry at full scale.
const DefaultEventCap = 1 << 16

// Tracer records events and counters. Create with New; the zero value and
// the nil pointer are both safe no-op recorders (nil is the normal
// "tracing disabled" representation).
type Tracer struct {
	start    time.Time
	cap      int
	counters [numCounters]atomic.Int64
	dropped  atomic.Int64

	mu     sync.Mutex
	events []Event
}

// New returns a Tracer with the default event capacity.
func New() *Tracer { return NewWithCap(DefaultEventCap) }

// NewWithCap returns a Tracer holding at most eventCap events; older
// events are kept, later ones dropped (and counted), so the recording is a
// faithful prefix. eventCap <= 0 selects DefaultEventCap.
func NewWithCap(eventCap int) *Tracer {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	return &Tracer{start: time.Now(), cap: eventCap}
}

// enabled reports whether t records anything.
func (t *Tracer) enabled() bool { return t != nil }

func (t *Tracer) emit(ev Event) {
	ev.TS = int64(time.Since(t.start))
	t.mu.Lock()
	if len(t.events) < t.cap {
		t.events = append(t.events, ev)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.dropped.Add(1)
}

// Round records one frontier extraction: round is the 1-based round index
// within the algo's run, frontier the number of extracted entries.
func (t *Tracer) Round(algo string, round, frontier int64) {
	if t == nil {
		return
	}
	t.counters[CtrRounds].Add(1)
	t.emit(Event{Kind: KindRound, Algo: algo, A: round, B: frontier})
}

// DirectionSwitch records that the given round ran bottom-up.
func (t *Tracer) DirectionSwitch(algo string, round int64) {
	if t == nil {
		return
	}
	t.counters[CtrBottomUp].Add(1)
	t.emit(Event{Kind: KindDirSwitch, Algo: algo, A: round})
}

// Phase records one outer phase boundary (SCC peeling round, SSSP θ step).
// detail is caller-defined (-1 when unused; the stepping driver behind
// sssp/ptp reports how many vertices the boundary drained from its far bag).
func (t *Tracer) Phase(algo string, phase, detail int64) {
	if t == nil {
		return
	}
	t.counters[CtrPhases].Add(1)
	t.emit(Event{Kind: KindPhase, Algo: algo, A: phase, B: detail})
}

// Cancel records a run of algo stopping early at a cancellation or
// deadline check, after completing `rounds` rounds.
func (t *Tracer) Cancel(algo string, rounds int64) {
	if t == nil {
		return
	}
	t.counters[CtrCancels].Add(1)
	t.emit(Event{Kind: KindCancel, Algo: algo, A: rounds})
}

// LaneScans adds n edge scans performed by the batched multi-source (MS-BFS)
// lane engine. Each scan is one adjacency-list visit that advances up to 64
// traversals at once, so CtrLaneScans/CtrRounds read against a looped
// single-source run's EdgesVisited shows the batch's scan sharing (counter
// only; lane scans are far too frequent for per-event recording).
func (t *Tracer) LaneScans(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.counters[CtrLaneScans].Add(n)
}

// Loop records one parallel launch that published `forks` helper slots (or
// Do arms) over `chunks` chunks (counters only).
func (t *Tracer) Loop(forks, chunks int64) {
	if t == nil {
		return
	}
	t.counters[CtrLoops].Add(1)
	t.counters[CtrForks].Add(forks)
	_ = chunks
}

// LoopInline records a parallel loop that fit in one chunk and ran inline
// (counter only).
func (t *Tracer) LoopInline() {
	if t == nil {
		return
	}
	t.counters[CtrInlineLoops].Add(1)
}

// Steal records one successful steal: a loop chunk-range half or a Do arm
// claimed by a participant other than its owner (counter only).
func (t *Tracer) Steal() {
	if t == nil {
		return
	}
	t.counters[CtrSteals].Add(1)
}

// Park records one pool worker blocking on the idle wait (counter only).
func (t *Tracer) Park() {
	if t == nil {
		return
	}
	t.counters[CtrParks].Add(1)
}

// Wake records n wakeups issued to parked workers (counter only).
func (t *Tracer) Wake(n int64) {
	if t == nil {
		return
	}
	t.counters[CtrWakes].Add(n)
}

// CounterValue returns the current value of counter c (0 on a nil tracer).
func (t *Tracer) CounterValue(c Counter) int64 {
	if t == nil || c < 0 || c >= numCounters {
		return 0
	}
	return t.counters[c].Load()
}

// Dropped returns how many events did not fit the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Events returns a copy of the recorded events in emission order (nil on a
// nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// EventsFor returns the recorded events of one algo label, in order.
func (t *Tracer) EventsFor(algo string) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Algo == algo {
			out = append(out, ev)
		}
	}
	return out
}

// Reset clears events, counters, and the drop count, and restarts the
// clock. Not safe to call concurrently with recording.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
	for i := range t.counters {
		t.counters[i].Store(0)
	}
	t.dropped.Store(0)
	t.start = time.Now()
}
