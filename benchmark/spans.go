package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Start and End are nanoseconds since the recorder
// was created; Parent is the id of the span that caused this one (0 for a
// root) and Req groups the spans of one request or op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Algo   string `json:"algo,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path threads it unconditionally.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *spanRec) begin(name, algo string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Algo: algo, Start: now,
	})
	return len(r.spans)
}

func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// place records a span whose duration was measured elsewhere (a kernel
// call replayed outside the handler that would contain it), anchored at
// its parent's start and clamped to the parent's extent.
func (r *spanRec) place(name, algo string, parent, req int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	end := p.Start + d.Nanoseconds()
	if end > p.End {
		end = p.End
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Algo: algo,
		Start: p.Start, End: end,
	})
}

// selfTimes returns, per span name, the self times in milliseconds: each
// span's duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string][]float64 {
	covered := make(map[int]int64, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered[s.ID]
		out[s.Name] = append(out[s.Name], float64(max(self, 0))/1e6)
	}
	return out
}

// write dumps the spans as one JSON object per line.
func (r *spanRec) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
