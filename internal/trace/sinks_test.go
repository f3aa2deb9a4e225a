package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func record(t *testing.T) *Tracer {
	t.Helper()
	tr := New()
	tr.Round("bfs", 1, 1)
	tr.Round("bfs", 2, 16)
	tr.DirectionSwitch("bfs", 3)
	tr.Round("bfs", 3, 900)
	tr.Phase("scc", 1, 12)
	tr.Round("scc", 1, 4)
	tr.Cancel("sssp", 2)
	return tr
}

func TestWriteRoundLog(t *testing.T) {
	var buf bytes.Buffer
	if err := record(t).WriteRoundLog(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"7 events (0 dropped)",
		"rounds=4", "bottom_up=1", "phases=1", "cancels=1",
		"round 2: frontier=16",
		"direction switch -> bottom-up",
		"phase 1 (detail=12)",
		"canceled after 2 rounds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("round log missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := record(t).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d JSONL lines, want 7", len(lines))
	}
	var first struct {
		TSNs int64  `json:"ts_ns"`
		Kind string `json:"kind"`
		Algo string `json:"algo"`
		A    int64  `json:"a"`
		B    int64  `json:"b"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if first.Kind != "round" || first.Algo != "bfs" || first.A != 1 || first.B != 1 {
		t.Fatalf("unexpected first event: %+v", first)
	}
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("line %d is not valid JSON: %s", i, l)
		}
	}
}

// TestWriteChromeTrace validates the trace_event output structurally: it
// must parse as JSON, every event needs a phase and in-range timestamps,
// and round slices must carry durations that stay inside the recording.
func TestWriteChromeTrace(t *testing.T) {
	tr := record(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 7 events + 3 thread_name metadata records (bfs, scc, sssp).
	if len(parsed.TraceEvents) != 7+3 {
		t.Fatalf("got %d trace events, want 10", len(parsed.TraceEvents))
	}
	rounds, metas := 0, 0
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "X":
			rounds++
			if ev.Dur <= 0 {
				t.Errorf("round slice %q has non-positive dur %v", ev.Name, ev.Dur)
			}
			if _, ok := ev.Args["frontier"]; !ok {
				t.Errorf("round slice %q missing frontier arg", ev.Name)
			}
		case "i":
			if ev.Args == nil {
				t.Errorf("instant event %q missing args", ev.Name)
			}
		case "M":
			metas++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.PID != 1 {
			t.Errorf("event %q pid = %d, want 1", ev.Name, ev.PID)
		}
	}
	if rounds != 4 {
		t.Errorf("got %d round slices, want 4", rounds)
	}
	if metas != 3 {
		t.Errorf("got %d metadata events, want 3", metas)
	}
}

// TestChromeTraceEmpty: an empty recording must still produce valid JSON
// with an empty (not null) traceEvents array.
func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if string(parsed["traceEvents"]) != "[]" {
		t.Fatalf("empty trace events = %s, want []", parsed["traceEvents"])
	}
}
