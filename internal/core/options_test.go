package core

import (
	"math"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// TestNormalizedTau covers every Tau boundary: negative and zero select the
// default, in-range values pass through, and values past MaxTau clamp.
func TestNormalizedTau(t *testing.T) {
	cases := []struct {
		raw, want int
	}{
		{math.MinInt, DefaultTau},
		{-1, DefaultTau},
		{0, DefaultTau},
		{1, 1},
		{DefaultTau, DefaultTau},
		{MaxTau, MaxTau},
		{MaxTau + 1, MaxTau},
		{math.MaxInt, MaxTau},
	}
	for _, c := range cases {
		got := Options{Tau: c.raw}.Normalized().Tau
		if got != c.want {
			t.Errorf("Normalized Tau(%d) = %d, want %d", c.raw, got, c.want)
		}
		if eff := (Options{Tau: c.raw}).tau(); eff != c.want {
			t.Errorf("tau(%d) = %d, want %d", c.raw, eff, c.want)
		}
	}
}

// TestNormalizedDenseFrac covers the DenseFrac boundaries, in particular
// the >= 1 edge case: a fraction of 1 or more can never trigger a bottom-up
// switch (extractions exceed n only via duplicates), so it must normalize
// to direction-opt disabled rather than a cut that could spuriously fire.
func TestNormalizedDenseFrac(t *testing.T) {
	cases := []struct {
		raw         float64
		want        float64
		wantDisable bool
	}{
		{math.Inf(-1), DefaultDenseFrac, false},
		{-1, DefaultDenseFrac, false},
		{0, DefaultDenseFrac, false},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, false},
		{0.05, 0.05, false},
		{0.999, 0.999, false},
		{1, DefaultDenseFrac, true},
		{1.5, DefaultDenseFrac, true},
		{math.Inf(1), DefaultDenseFrac, true},
		{math.NaN(), DefaultDenseFrac, true},
	}
	for _, c := range cases {
		n := Options{DenseFrac: c.raw}.Normalized()
		if n.DenseFrac != c.want || n.DisableDirectionOpt != c.wantDisable {
			t.Errorf("Normalized DenseFrac(%v) = (%v, disable=%v), want (%v, %v)",
				c.raw, n.DenseFrac, n.DisableDirectionOpt, c.want, c.wantDisable)
		}
	}
	// An explicit DisableDirectionOpt must survive normalization even with
	// a valid fraction.
	if n := (Options{DisableDirectionOpt: true, DenseFrac: 0.1}).Normalized(); !n.DisableDirectionOpt {
		t.Error("Normalized dropped DisableDirectionOpt")
	}
}

// TestDenseCut checks the derived switch threshold at its boundaries: the
// impossible-fraction cases return MaxInt64 (never fires) and tiny valid
// fractions floor at 1.
func TestDenseCut(t *testing.T) {
	cases := []struct {
		opt  Options
		n    int
		want int64
	}{
		{Options{}, 1000, 50},             // default 5%
		{Options{DenseFrac: 0.5}, 10, 5},  //
		{Options{DenseFrac: 1e-9}, 10, 1}, // floors at 1
		{Options{DenseFrac: 0.05}, 0, 1},  // empty graph still floors
		{Options{DenseFrac: 1}, 1000, math.MaxInt64},
		{Options{DenseFrac: 2}, 1000, math.MaxInt64},
		{Options{DenseFrac: math.NaN()}, 1000, math.MaxInt64},
		{Options{DisableDirectionOpt: true}, 1000, math.MaxInt64},
	}
	for _, c := range cases {
		if got := c.opt.denseCut(c.n); got != c.want {
			t.Errorf("denseCut(%+v, n=%d) = %d, want %d", c.opt, c.n, got, c.want)
		}
		// The cut computed from the normalized form must agree with the raw
		// form — normalization must not change behavior.
		if got := c.opt.Normalized().denseCut(c.n); got != c.want {
			t.Errorf("normalized denseCut(%+v, n=%d) = %d, want %d", c.opt, c.n, got, c.want)
		}
	}
}

// TestNormalizedIdempotent: Normalized must be a fixed point on its own
// output for a matrix of raw values, including the pass-through fields.
func TestNormalizedIdempotent(t *testing.T) {
	raws := []Options{
		{},
		{Tau: -3, DenseFrac: math.NaN()},
		{Tau: MaxTau + 5, DenseFrac: 2},
		{Tau: 7, DenseFrac: 0.3, RecordFrontiers: true},
		{DisableDirectionOpt: true, DenseFrac: 0.2},
	}
	for _, raw := range raws {
		once := raw.Normalized()
		twice := once.Normalized()
		if once != twice {
			t.Errorf("Normalized not idempotent for %+v: %+v vs %+v", raw, once, twice)
		}
		if once.RecordFrontiers != raw.RecordFrontiers ||
			once.Tracer != raw.Tracer {
			t.Errorf("Normalized mutated a pass-through field: %+v -> %+v", raw, once)
		}
	}
}

// TestBFSDenseFracBoundaries runs BFS end-to-end at the DenseFrac
// boundaries: a fraction >= 1 must behave exactly like direction-opt
// disabled (no bottom-up rounds, same distances), and a tiny fraction must
// force bottom-up rounds while preserving correctness.
func TestBFSDenseFracBoundaries(t *testing.T) {
	g := gen.ER(800, 4000, false, 11)
	want, _, _ := BFS(g, 0, Options{DisableDirectionOpt: true})

	for _, frac := range []float64{1, 1.5, math.Inf(1), math.NaN()} {
		got, met, _ := BFS(g, 0, Options{DenseFrac: frac})
		if met.BottomUp != 0 {
			t.Errorf("DenseFrac=%v ran %d bottom-up rounds, want 0", frac, met.BottomUp)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("DenseFrac=%v dist[%d] = %d, want %d", frac, v, got[v], want[v])
			}
		}
	}

	got, met, _ := BFS(g, 0, Options{DenseFrac: math.SmallestNonzeroFloat64})
	if met.BottomUp == 0 {
		t.Error("tiny DenseFrac never switched bottom-up on a dense graph")
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("tiny DenseFrac dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestBFSTauBoundaries runs BFS at the Tau extremes (VGC off, default,
// larger-than-graph) and checks distances agree. The MaxTau clamp itself is
// covered by TestNormalizedTau — running a clamped-τ BFS would allocate
// millions of frontier buckets for no extra coverage.
func TestBFSTauBoundaries(t *testing.T) {
	g := gen.Chain(3000, false)
	want, _, _ := BFS(g, 0, Options{})
	for _, tau := range []int{math.MinInt, 0, 1, 4096} {
		got, met, _ := BFS(g, 0, Options{Tau: tau})
		if met.Rounds <= 0 {
			t.Errorf("Tau=%d recorded %d rounds", tau, met.Rounds)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("Tau=%d dist[%d] = %d, want %d", tau, v, got[v], want[v])
			}
		}
	}
}

// TestBFSSmallTauBottomUpChain is the regression test for a lost-vertex bug:
// a bottom-up round chains pull updates along index-ascending paths (a
// vertex reads an in-neighbor distance stored earlier in the same scan), so
// one round could insert entries many hops past the current distance. With
// a small tau the 2*tau+4 bucket ring wrapped, the deep entries landed in
// wrong-distance buckets, and extraction dropped them as stale — so a deep
// chain vertex was never expanded top-down. The chain's own distances still
// came out right (the pull scan itself settles index-ascending paths), but
// a "hook" vertex whose only parent is deep in the chain AND whose index is
// below the chain (scanned before the chain settles) was left unreached.
// The graph: a hub dense enough to trigger bottom-up, a long
// index-ascending tail, and a hook hanging off the tail's end at a lower
// index than the tail.
func TestBFSSmallTauBottomUpChain(t *testing.T) {
	const hub, tail = 120, 60
	hook := uint32(hub)       // index below every chain vertex
	chain0 := uint32(hub + 1) // chain occupies hub+1 .. hub+tail
	chainEnd := uint32(hub + tail)
	var edges []graph.Edge
	for i := 1; i < hub; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(i)})
	}
	edges = append(edges, graph.Edge{U: uint32(hub - 1), V: chain0})
	for v := chain0; v < chainEnd; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	edges = append(edges, graph.Edge{U: chainEnd, V: hook})
	g := graph.FromEdges(hub+tail+1, edges, false, graph.BuildOptions{Symmetrize: true})
	// The pull scan only chains within one sequentially-scanned chunk, so
	// pin to one worker to make the deep chain (and the bug) deterministic.
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	want, _, _ := BFS(g, 0, Options{DisableDirectionOpt: true})
	// DenseFrac 0.3: only the wide hub frontier goes bottom-up; the later
	// (chain) rounds stay top-down, so a dropped chain entry is never
	// repaired by another bottom-up pull and the hook stays unreached.
	for _, tau := range []int{1, 2, 3, 5, 9} {
		got, met, _ := BFS(g, 0, Options{Tau: tau, DenseFrac: 0.3})
		if met.BottomUp == 0 {
			t.Fatalf("Tau=%d: shape did not trigger a bottom-up round", tau)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("Tau=%d dist[%d] = %d, want %d", tau, v, got[v], want[v])
			}
		}
	}
}
