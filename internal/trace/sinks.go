package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Summary is the counter snapshot embedded in sink headers.
type Summary struct {
	Events  int              `json:"events"`
	Dropped int64            `json:"dropped"`
	Counter map[string]int64 `json:"counters"`
}

// Snapshot returns the current Summary (zero value on a nil tracer).
func (t *Tracer) Snapshot() Summary {
	s := Summary{Counter: map[string]int64{}}
	if t == nil {
		return s
	}
	s.Events = len(t.Events())
	s.Dropped = t.Dropped()
	for c := Counter(0); c < numCounters; c++ {
		s.Counter[c.Name()] = t.CounterValue(c)
	}
	return s
}

// WriteRoundLog writes the recording as a human-readable per-round log: a
// counter header, then one line per event in emission order.
func (t *Tracer) WriteRoundLog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := t.Snapshot()
	fmt.Fprintf(bw, "# pasgal trace: %d events (%d dropped)\n", s.Events, s.Dropped)
	fmt.Fprintf(bw, "# counters:")
	for c := Counter(0); c < numCounters; c++ {
		fmt.Fprintf(bw, " %s=%d", c.Name(), s.Counter[c.Name()])
	}
	fmt.Fprintln(bw)
	for _, ev := range t.Events() {
		ts := float64(ev.TS) / 1e9
		switch ev.Kind {
		case KindRound:
			fmt.Fprintf(bw, "+%.6fs %-12s round %d: frontier=%d\n", ts, ev.Algo, ev.A, ev.B)
		case KindDirSwitch:
			fmt.Fprintf(bw, "+%.6fs %-12s round %d: direction switch -> bottom-up\n", ts, ev.Algo, ev.A)
		case KindPhase:
			fmt.Fprintf(bw, "+%.6fs %-12s phase %d (detail=%d)\n", ts, ev.Algo, ev.A, ev.B)
		case KindCancel:
			fmt.Fprintf(bw, "+%.6fs %-12s canceled after %d rounds\n", ts, ev.Algo, ev.A)
		}
	}
	return bw.Flush()
}

// jsonlEvent is the JSONL wire form of an Event.
type jsonlEvent struct {
	TSNs int64  `json:"ts_ns"`
	Kind string `json:"kind"`
	Algo string `json:"algo"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

// WriteJSONL writes one JSON object per event (the machine-readable event
// stream). Field semantics follow Event's documentation.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		if err := enc.Encode(jsonlEvent{
			TSNs: ev.TS, Kind: ev.Kind.String(), Algo: ev.Algo, A: ev.A, B: ev.B,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       Summary       `json:"otherData"`
}

// WriteChromeTrace writes the recording in the Chrome trace_event JSON
// format, loadable in chrome://tracing or Perfetto. Each algo label
// becomes a track (tid); a round renders as a complete ("X") slice lasting
// until the algo's next round or phase (rounds are emitted at extraction
// time, so the gap to the next extraction is the round's duration);
// direction switches, phases, and bag resizes render as instant events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()

	// Stable track ids in order of first appearance.
	tids := map[string]int{}
	tidOf := func(algo string) int {
		if id, ok := tids[algo]; ok {
			return id
		}
		id := len(tids) + 1
		tids[algo] = id
		return id
	}

	// For round durations: the next round/phase TS per algo, per event.
	endOf := make([]int64, len(events))
	lastTS := int64(0)
	for _, ev := range events {
		if ev.TS > lastTS {
			lastTS = ev.TS
		}
	}
	nextTS := map[string]int64{}
	for i := len(events) - 1; i >= 0; i-- {
		ev := events[i]
		if ev.Kind != KindRound {
			continue
		}
		if ts, ok := nextTS[ev.Algo]; ok {
			endOf[i] = ts
		} else {
			endOf[i] = lastTS
		}
		nextTS[ev.Algo] = ev.TS
	}

	out := chromeTrace{DisplayTimeUnit: "ms", OtherData: t.Snapshot(),
		TraceEvents: []chromeEvent{}}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i, ev := range events {
		tid := tidOf(ev.Algo)
		switch ev.Kind {
		case KindRound:
			dur := us(endOf[i] - ev.TS)
			if dur <= 0 {
				dur = 0.001 // keep zero-length slices visible
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("%s round %d", ev.Algo, ev.A), Cat: "round",
				Ph: "X", TS: us(ev.TS), Dur: dur, PID: 1, TID: tid,
				Args: map[string]any{"round": ev.A, "frontier": ev.B},
			})
		case KindDirSwitch:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "bottom-up", Cat: "dir_switch", Ph: "i", S: "t",
				TS: us(ev.TS), PID: 1, TID: tid,
				Args: map[string]any{"round": ev.A},
			})
		case KindPhase:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("%s phase %d", ev.Algo, ev.A), Cat: "phase",
				Ph: "i", S: "t", TS: us(ev.TS), PID: 1, TID: tid,
				Args: map[string]any{"phase": ev.A, "detail": ev.B},
			})
		case KindCancel:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "canceled", Cat: "cancel", Ph: "i", S: "t",
				TS: us(ev.TS), PID: 1, TID: tid,
				Args: map[string]any{"rounds": ev.A},
			})
		}
	}
	// Thread-name metadata so Perfetto labels the tracks.
	for algo, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": algo},
		})
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return err
	}
	return bw.Flush()
}
