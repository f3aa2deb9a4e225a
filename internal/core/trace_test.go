package core

import (
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

// traceRounds extracts the (round index, frontier size) series of one algo
// label from a recording.
func traceRounds(tr *trace.Tracer, algo string) (idx, frontier []int64) {
	for _, ev := range tr.EventsFor(algo) {
		if ev.Kind == trace.KindRound {
			idx = append(idx, ev.A)
			frontier = append(frontier, ev.B)
		}
	}
	return idx, frontier
}

// TestTraceMatchesMetricsBFSChain: on a known chain, the traced round
// series must agree event-for-event with core.Metrics — same round count,
// same frontier-size sequence, and (chains never go dense) no direction
// switches. The tracer and Metrics are two independent observers of one
// run; any disagreement means one of them lies.
func TestTraceMatchesMetricsBFSChain(t *testing.T) {
	g := gen.Chain(5000, false)
	tr := trace.New()
	dist, met, _ := BFS(g, 0, Options{Tracer: tr, RecordFrontiers: true})
	if dist[4999] != 4999 {
		t.Fatalf("chain BFS broken: dist[4999] = %d", dist[4999])
	}

	idx, frontier := traceRounds(tr, "bfs")
	if int64(len(idx)) != met.Rounds {
		t.Fatalf("traced %d rounds, Metrics says %d", len(idx), met.Rounds)
	}
	if got := tr.CounterValue(trace.CtrRounds); got != met.Rounds {
		t.Fatalf("rounds counter = %d, Metrics says %d", got, met.Rounds)
	}
	for i := range idx {
		if idx[i] != int64(i+1) {
			t.Fatalf("round event %d has index %d, want %d", i, idx[i], i+1)
		}
		if frontier[i] != met.FrontierSizes[i] {
			t.Fatalf("round %d traced frontier %d, Metrics recorded %d",
				i+1, frontier[i], met.FrontierSizes[i])
		}
	}
	if met.BottomUp != 0 || tr.CounterValue(trace.CtrBottomUp) != 0 {
		t.Fatalf("chain BFS went bottom-up (met=%d, trace=%d)",
			met.BottomUp, tr.CounterValue(trace.CtrBottomUp))
	}
	// The chain's frontier total must cover all n vertices at least once.
	var taken int64
	for _, f := range frontier {
		taken += f
	}
	if taken != met.VerticesTaken {
		t.Fatalf("traced frontier sum %d != VerticesTaken %d", taken, met.VerticesTaken)
	}
}

// TestTraceMatchesMetricsBFSGrid: a dense-ish grid with a tiny DenseFrac
// forces direction switches; every switch must appear both in Metrics and
// as a KindDirSwitch event naming a round that exists.
func TestTraceMatchesMetricsBFSGrid(t *testing.T) {
	g := gen.Grid2D(60, 60, false, 1)
	tr := trace.New()
	_, met, _ := BFS(g, 0, Options{Tracer: tr, RecordFrontiers: true, DenseFrac: 1e-6})
	if met.BottomUp == 0 {
		t.Fatal("grid BFS with tiny DenseFrac never switched bottom-up")
	}

	idx, frontier := traceRounds(tr, "bfs")
	if int64(len(idx)) != met.Rounds {
		t.Fatalf("traced %d rounds, Metrics says %d", len(idx), met.Rounds)
	}
	for i := range frontier {
		if frontier[i] != met.FrontierSizes[i] {
			t.Fatalf("round %d traced frontier %d, Metrics recorded %d",
				i+1, frontier[i], met.FrontierSizes[i])
		}
	}

	var switches int64
	for _, ev := range tr.EventsFor("bfs") {
		if ev.Kind != trace.KindDirSwitch {
			continue
		}
		switches++
		if ev.A < 1 || ev.A > met.Rounds {
			t.Fatalf("direction switch names round %d outside [1,%d]", ev.A, met.Rounds)
		}
	}
	if switches != met.BottomUp {
		t.Fatalf("traced %d direction switches, Metrics says %d", switches, met.BottomUp)
	}
	if got := tr.CounterValue(trace.CtrBottomUp); got != met.BottomUp {
		t.Fatalf("bottom_up counter = %d, Metrics says %d", got, met.BottomUp)
	}
}

// TestTracePhasesSCC: SCC's traced phase events must match Metrics.Phases.
func TestTracePhasesSCC(t *testing.T) {
	g := gen.WebLike(800, 5, 0.3, 20, 9)
	tr := trace.New()
	_, _, met, _ := SCC(g, Options{Tracer: tr})
	if met.Phases == 0 {
		t.Fatal("SCC ran zero phases")
	}
	var phases int64
	for _, ev := range tr.EventsFor("scc") {
		if ev.Kind == trace.KindPhase {
			phases++
			if ev.A != phases {
				t.Fatalf("phase event %d has index %d", phases, ev.A)
			}
		}
	}
	if phases != met.Phases {
		t.Fatalf("traced %d phases, Metrics says %d", phases, met.Phases)
	}
	if got := tr.CounterValue(trace.CtrPhases); got != met.Phases {
		t.Fatalf("phases counter = %d, Metrics says %d", got, met.Phases)
	}
}

// TestTracePhasesBCC: FAST-BCC has no frontier rounds; it reports its five
// stages — forest, euler, sweep, fence, label — as phases, each traced
// with its wall time in microseconds, and the arcs its two sweeps visit.
func TestTracePhasesBCC(t *testing.T) {
	g := gen.TriGrid(30, 30)
	tr := trace.New()
	_, met, _ := BCC(g, Options{Tracer: tr})
	if met.Phases != 5 || met.Rounds != 0 {
		t.Fatalf("BCC ran %d phases and %d rounds, want 5 and 0", met.Phases, met.Rounds)
	}
	if want := int64(2 * len(g.Edges)); met.EdgesVisited != want {
		t.Fatalf("EdgesVisited = %d, two sweeps over %d arcs are %d", met.EdgesVisited, len(g.Edges), want)
	}
	var phases int64
	for _, ev := range tr.EventsFor("bcc") {
		if ev.Kind == trace.KindPhase {
			phases++
			if ev.A != phases {
				t.Fatalf("phase event %d has index %d", phases, ev.A)
			}
			if ev.B < 0 {
				t.Fatalf("phase %d carries detail %d, want its duration in µs", phases, ev.B)
			}
		}
	}
	if phases != met.Phases {
		t.Fatalf("traced %d phases, Metrics says %d", phases, met.Phases)
	}
	if got := tr.CounterValue(trace.CtrPhases); got != met.Phases {
		t.Fatalf("phases counter = %d, Metrics says %d", got, met.Phases)
	}
}

// TestTraceSharedAcrossAlgos: one tracer threaded through several runs must
// keep the per-algo series separable and the totals additive.
func TestTraceSharedAcrossAlgos(t *testing.T) {
	tr := trace.New()
	opt := Options{Tracer: tr}
	g := gen.Chain(500, false)
	_, metBFS, _ := BFS(g, 0, opt)
	dg := gen.Cycle(400, true)
	_, _, metSCC, _ := SCC(dg, opt)

	bfsIdx, _ := traceRounds(tr, "bfs")
	sccIdx, _ := traceRounds(tr, "scc")
	if int64(len(bfsIdx)) != metBFS.Rounds {
		t.Fatalf("bfs series has %d rounds, want %d", len(bfsIdx), metBFS.Rounds)
	}
	if int64(len(sccIdx)) != metSCC.Rounds {
		t.Fatalf("scc series has %d rounds, want %d", len(sccIdx), metSCC.Rounds)
	}
	if got := tr.CounterValue(trace.CtrRounds); got != metBFS.Rounds+metSCC.Rounds {
		t.Fatalf("shared rounds counter = %d, want %d",
			got, metBFS.Rounds+metSCC.Rounds)
	}
}

// TestSchedulerTracerCounters: a tracer installed with parallel.SetTracer
// around a run must see the fork-join runtime's counters — the launch
// counts it saw must match the SchedStats delta over the run exactly (the
// same two-independent-observers contract the round tests enforce) — and
// none once the previous hook is restored.
func TestSchedulerTracerCounters(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	g := gen.Chain(5000, false)

	tr := trace.New()
	prev := parallel.SetTracer(tr)
	before := parallel.SchedStats()
	_, met, _ := BFS(g, 0, Options{Tracer: tr})
	after := parallel.SchedStats()
	parallel.SetTracer(prev)
	if met.Rounds == 0 {
		t.Fatal("BFS did no rounds")
	}

	if got := tr.CounterValue(trace.CtrLoops) + tr.CounterValue(trace.CtrInlineLoops); got == 0 {
		t.Fatal("the scheduler tracer saw no loop launches during BFS")
	}
	type pair struct {
		name  string
		delta int64
		ctr   trace.Counter
	}
	for _, c := range []pair{
		{"loops", after.Loops - before.Loops, trace.CtrLoops},
		{"inline", after.Inline - before.Inline, trace.CtrInlineLoops},
		{"forks", after.Forks - before.Forks, trace.CtrForks},
		{"steals", after.Steals - before.Steals, trace.CtrSteals},
	} {
		if got := tr.CounterValue(c.ctr); got != c.delta {
			t.Errorf("%s: tracer saw %d, SchedStats delta is %d", c.name, got, c.delta)
		}
	}

	// The hook is gone once restored: new launches may not count.
	loopsAfter := tr.CounterValue(trace.CtrLoops)
	parallel.For(100000, 16, func(int) {})
	if got := tr.CounterValue(trace.CtrLoops); got != loopsAfter {
		t.Fatalf("runtime tracer leaked past its restore: loops %d -> %d", loopsAfter, got)
	}

	// With only Options.Tracer the same run records no scheduler counters.
	tr2 := trace.New()
	BFS(g, 0, Options{Tracer: tr2})
	if got := tr2.CounterValue(trace.CtrLoops) + tr2.CounterValue(trace.CtrSteals); got != 0 {
		t.Fatalf("scheduler counters recorded with only Options.Tracer: %d", got)
	}
}

// TestTraceNilIsDefault: a zero Options must behave identically to an
// explicit nil tracer — and produce no events anywhere.
func TestTraceNilIsDefault(t *testing.T) {
	g := gen.Chain(300, false)
	d1, m1, _ := BFS(g, 0, Options{})
	d2, m2, _ := BFS(g, 0, Options{Tracer: nil})
	if m1.Rounds != m2.Rounds {
		t.Fatalf("nil tracer changed round count: %d vs %d", m1.Rounds, m2.Rounds)
	}
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("nil tracer changed dist[%d]", v)
		}
	}
}
