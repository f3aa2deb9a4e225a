// Package core implements PASGAL's algorithms: BFS, SCC, and SSSP built
// on vertical granularity control (VGC) with single-owner frontier lists,
// and the FAST-BCC biconnectivity algorithm. These are the paper's
// contribution; the competing systems live in internal/baseline and the
// sequential references in internal/seq.
//
// # Vertical granularity control
//
// A frontier-based algorithm that processes one vertex per parallel task
// drowns in scheduling overhead on large-diameter graphs: Θ(D) rounds,
// each paying a fork-join barrier, over frontiers too small to occupy the
// machine. VGC gives each task a *local search*: starting from its frontier
// vertex it keeps exploring — multiple hops deep — until it has visited
// about τ edges, and only the leftovers are pushed into the shared next
// frontier. One round therefore advances many hops and the frontier grows
// multiplicatively, hiding synchronization cost exactly as classic
// (horizontal) granularity control hides it for flat loops.
package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

// DefaultTau is the default VGC local-search budget in edges.
const DefaultTau = 512

// MaxTau caps the VGC budget: BFS keeps 2τ+4 distance-indexed frontiers
// alive, so an unbounded τ would turn a tuning typo into a gigantic
// allocation. Budgets past this are clamped (a τ this large already means
// "one local search per round" on any graph we can hold in memory).
const MaxTau = 1 << 20

// DefaultDenseFrac is the default bottom-up switch threshold (fraction of
// n the frontier must reach).
const DefaultDenseFrac = 0.05

// trimRounds is the number of SCC trimming passes.
const trimRounds = 2

// Options tunes the PASGAL algorithms. The zero value selects defaults.
type Options struct {
	// Ctx, when non-nil, makes the run cancellable: every algorithm polls
	// it at round/phase boundaries (and the parallel runtime at chunk-claim
	// boundaries) and returns ErrCanceled or ErrDeadline — with the Metrics
	// accumulated so far, but never a partial result — once it is done.
	// nil means the run cannot be interrupted, and polling costs one nil
	// test. See docs/ROBUSTNESS.md for the cancellation contract.
	Ctx context.Context

	// Tau is the VGC local-search budget in edges; <= 0 selects
	// DefaultTau. Tau = 1 effectively disables VGC (every discovered
	// vertex goes back through the shared frontier), which is what the
	// ablation benchmarks use as the "no VGC" configuration.
	Tau int

	// DisableHashBag makes BFS's (and BFSTree's) top-down spills set bits
	// in flat dense frontier arrays (a full n-sized scan per extraction)
	// instead of appending to the spiller's own list — the ablation the
	// lists are measured against (no kernel uses a hash bag; the name
	// predates the lists). Only BFS reads it.
	DisableHashBag bool

	// DisableDirectionOpt turns off the Beamer-style bottom-up switch in
	// BFS.
	DisableDirectionOpt bool

	// DenseFrac is the frontier fraction (of n) above which BFS switches
	// to a bottom-up round; <= 0 selects 0.05.
	DenseFrac float64

	// RecordFrontiers makes Metrics.FrontierSizes record the size of every
	// extracted frontier, in round order (costs one append per round).
	RecordFrontiers bool

	// Tracer, when non-nil, receives structured per-round events (frontier
	// extractions, direction switches, phases) from the run. nil disables
	// tracing at the cost of one pointer test per round.
	Tracer *trace.Tracer

	// TraceScheduler, when set together with Tracer, additionally mirrors
	// the fork-join runtime's scheduling counters (loop launches, published
	// forks, steals, parks, wakes) into the same Tracer for the duration of
	// the call, so one trace shows both what the algorithm did per round
	// and what that cost the scheduler. The runtime hook is process-global
	// (the worker pool is shared); concurrent runs with different tracers
	// should not both set this.
	TraceScheduler bool
}

// attachRuntimeTracer installs opt.Tracer as the parallel runtime's tracer
// when opt.TraceScheduler asks for it, and returns the function that
// restores the previous hook — intended as `defer attachRuntimeTracer(opt)()`
// at every algorithm entry point.
func attachRuntimeTracer(opt Options) func() {
	if !opt.TraceScheduler || opt.Tracer == nil {
		return func() {}
	}
	prev := parallel.SetTracer(opt.Tracer)
	return func() { parallel.SetTracer(prev) }
}

// checkVertex rejects a caller-supplied vertex id at or past the vertex
// count — the entry points index per-vertex arrays with it, and their
// signatures promise an error, not a panic, for bad input.
func checkVertex(role string, v uint32, n int) error {
	if int(v) >= n {
		return fmt.Errorf("core: %s %d out of range [0, %d)", role, v, n)
	}
	return nil
}

// Normalized returns o with every field mapped to its canonical effective
// value, resolving the raw fields' sentinel encodings:
//
//   - Tau <= 0 selects DefaultTau; values above MaxTau are clamped.
//   - DenseFrac <= 0 (or NaN) selects DefaultDenseFrac; DenseFrac >= 1 can
//     never trigger (a frontier extraction may exceed n entries only via
//     duplicates, which must not flip direction), so it normalizes to
//     DisableDirectionOpt with the default fraction.
//
// Normalization is idempotent, and every algorithm applies it on entry, so
// raw and normalized Options behave identically.
func (o Options) Normalized() Options {
	n := o
	n.Tau = o.tau()
	if math.IsNaN(o.DenseFrac) || o.DenseFrac >= 1 {
		n.DisableDirectionOpt = true
		n.DenseFrac = DefaultDenseFrac
	} else if o.DenseFrac <= 0 {
		n.DenseFrac = DefaultDenseFrac
	}
	return n
}

func (o Options) tau() int {
	if o.Tau <= 0 {
		return DefaultTau
	}
	if o.Tau > MaxTau {
		return MaxTau
	}
	return o.Tau
}

func (o Options) denseFrac() float64 {
	if math.IsNaN(o.DenseFrac) || o.DenseFrac <= 0 || o.DenseFrac >= 1 {
		return DefaultDenseFrac
	}
	return o.DenseFrac
}

// denseCut returns the frontier size at which BFS switches bottom-up, or
// math.MaxInt64 when direction optimization cannot apply (disabled, or a
// fraction >= 1 — extractions can exceed n via duplicate inserts, so a cut
// derived from an impossible fraction must never fire).
func (o Options) denseCut(n int) int64 {
	if o.DisableDirectionOpt || math.IsNaN(o.DenseFrac) || o.DenseFrac >= 1 {
		return math.MaxInt64
	}
	cut := int64(float64(n) * o.denseFrac())
	if cut < 1 {
		cut = 1
	}
	return cut
}

// DenseCut returns the frontier size at which a traversal over an n-vertex
// graph switches to a bottom-up (pull) round, or math.MaxInt64 when
// direction optimization cannot apply. It is the exported form of the
// heuristic BFS uses internally, so batched engines built outside this
// package (internal/msbfs) share the exact same switch point.
func (o Options) DenseCut(n int) int64 { return o.denseCut(n) }

// Metrics reports the machine-independent cost profile of a run. Rounds is
// the headline number: each round is one global synchronization barrier, so
// VGC's claim — collapsing Θ(D) rounds to a small multiple of D/τ-ish —
// shows up here on any machine, regardless of core count.
type Metrics struct {
	Rounds        int64 // frontier extractions = global synchronizations
	BottomUp      int64 // of which bottom-up (direction-optimized) rounds
	EdgesVisited  int64 // total edge relaxations/inspections
	VerticesTaken int64 // frontier entries extracted (incl. stale)
	MaxFrontier   int64 // largest extracted frontier
	Phases        int64 // SCC outer rounds / SSSP threshold phases / BCC stages

	// FrontierSizes is the per-round frontier size series, recorded only
	// when Options.RecordFrontiers is set. The paper's §2.1 claims VGC
	// "quickly accumulates a large frontier size"; this series is the
	// direct evidence.
	FrontierSizes []int64

	record bool
	tracer *trace.Tracer
	algo   string
}

// NewMetrics returns a Metrics wired to opt's tracer under the given algo
// label: every Round/AddBottomUp/AddPhase call is mirrored as a trace
// event, so the tracer sees exactly the series Metrics accumulates (the
// trace invariant tests assert this agreement). The zero Metrics value
// remains valid and trace-free.
func NewMetrics(opt Options, algo string) *Metrics {
	return &Metrics{record: opt.RecordFrontiers, tracer: opt.Tracer, algo: algo}
}

// Round records one frontier extraction of the given size: it bumps
// Rounds and VerticesTaken and folds the size into MaxFrontier. All
// updates are atomic, so algorithm code (here and in internal/baseline)
// never touches the counter fields directly — pasgal-vet's mixed-access
// rule enforces that split.
func (m *Metrics) Round(frontier int) {
	r := atomic.AddInt64(&m.Rounds, 1)
	atomic.AddInt64(&m.VerticesTaken, int64(frontier))
	m.tracer.Round(m.algo, r, int64(frontier))
	if m.record {
		// Rounds are extracted by a single coordinator goroutine; the
		// append does not race with other Round calls.
		m.FrontierSizes = append(m.FrontierSizes, int64(frontier))
	}
	for {
		cur := atomic.LoadInt64(&m.MaxFrontier)
		if int64(frontier) <= cur ||
			atomic.CompareAndSwapInt64(&m.MaxFrontier, cur, int64(frontier)) {
			return
		}
	}
}

// AddEdges adds k edge inspections to EdgesVisited. Safe to call from
// parallel loop bodies.
func (m *Metrics) AddEdges(k int64) {
	atomic.AddInt64(&m.EdgesVisited, k)
}

// AddPhase records one outer phase (SCC peeling round, SSSP threshold
// step, k-core peel, ...).
func (m *Metrics) AddPhase() { m.addPhase(-1) }

// addPhase is AddPhase with the trace event's caller-defined detail.
func (m *Metrics) addPhase(detail int64) {
	p := atomic.AddInt64(&m.Phases, 1)
	m.tracer.Phase(m.algo, p, detail)
}

// AddBottomUp records one bottom-up (direction-optimized) round.
func (m *Metrics) AddBottomUp() {
	atomic.AddInt64(&m.BottomUp, 1)
	m.tracer.DirectionSwitch(m.algo, atomic.LoadInt64(&m.Rounds))
}
