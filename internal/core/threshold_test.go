package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// TestDeltaSteppingThresholdSaturates pins the overflow behavior of the
// Δ-stepping band-end computation: (sample[0]/Δ + 1)·Δ wraps in uint64 when
// sample[0] sits within Δ of MaxUint64, which used to return θ < sample[0]
// and stall the phase loop's progress guarantee. The fix saturates to
// InfWeight.
func TestDeltaSteppingThresholdSaturates(t *testing.T) {
	cases := []struct {
		name   string
		delta  uint64
		sample uint64
		want   uint64
	}{
		{"normal band", 10, 25, 30},
		{"band boundary", 10, 30, 40},
		{"zero delta acts as one", 0, 7, 8},
		{"huge delta, small sample", 1 << 63, 42, 1 << 63},
		{"wrap: sample in top band of huge delta", 1 << 63, 1<<63 + 42, InfWeight},
		{"wrap: sample at MaxUint64, delta 1", 1, math.MaxUint64, InfWeight},
		{"wrap: sample near MaxUint64", 10, math.MaxUint64 - 5, InfWeight},
		{"delta MaxUint64", math.MaxUint64, 12345, InfWeight},
	}
	for _, tc := range cases {
		got := DeltaStepping{Delta: tc.delta}.Threshold(newLive([]uint64{tc.sample}, 1), LastPhase{})
		if got != tc.want {
			t.Errorf("%s: Threshold(%d, delta=%d) = %d, want %d",
				tc.name, tc.sample, tc.delta, got, tc.want)
		}
		if got < tc.sample {
			t.Errorf("%s: θ = %d < sample[0] = %d violates the progress guarantee",
				tc.name, got, tc.sample)
		}
	}
}

// TestRhoSteppingThresholdWidth pins ρ-stepping's band-width feedback: θ is
// the ρ-quantile (or max-sample) θ capped at sample[0] + w, where w is the
// previous phase's width doubled (at least 1) when it extracted fewer than
// ρ/2 entries, halved when it extracted more than 2ρ, kept otherwise. The
// Δ-stepping and Bellman–Ford policies ignore the previous phase.
func TestRhoSteppingThresholdWidth(t *testing.T) {
	const top = math.MaxUint64
	spread := []uint64{10, 20, 300}
	cases := []struct {
		name   string
		rho    int
		sample []uint64
		active int
		last   LastPhase
		want   uint64
	}{
		{"source phase: width 0 doubles to 1", 100, spread, 3, LastPhase{0, 1}, 11},
		{"below ρ/2: ×2", 100, spread, 3, LastPhase{8, 49}, 26},
		{"at ρ/2: unchanged", 100, spread, 3, LastPhase{8, 50}, 18},
		{"at 2ρ: unchanged", 100, spread, 3, LastPhase{8, 200}, 18},
		{"above 2ρ: ÷2", 100, spread, 3, LastPhase{8, 201}, 14},
		{"above 2ρ: ÷2 down to 0 gives sample[0]", 100, spread, 3, LastPhase{1, 500}, 10},
		{"width 0, in between: stays 0", 100, spread, 3, LastPhase{0, 100}, 10},
		{"doubling step never below 1", 100, spread, 3, LastPhase{0, 0}, 11},
		{"default ρ = 2^14: 8191 extractions are below ρ/2", 0, spread, 3, LastPhase{8, 8191}, 26},
		{"default ρ = 2^14: 8192 are not", 0, spread, 3, LastPhase{8, 8192}, 18},
		{"doubling a huge width saturates", 100, []uint64{5, 1 << 40}, 2, LastPhase{top - 3, 0}, 1 << 40},
		{"sample[0] + w wraps: saturates to today's θ", 100, []uint64{top - 10, top - 2}, 2, LastPhase{100, 100}, top - 2},
		{"cap wider than the live spread: today's θ (road)", 100, []uint64{1000, 1010, 1020}, 3, LastPhase{40, 10}, 1020},
		{"ρ < active, cap wider: the ρ-quantile", 100, []uint64{0, 50, 60, 70, 80, 90, 95, 99, 120, 130}, 1000, LastPhase{400, 100}, 50},
		{"ρ < active, cap narrower", 100, []uint64{0, 50, 60, 70, 80, 90, 95, 99, 120, 130}, 1000, LastPhase{2, 201}, 1},
	}
	for _, tc := range cases {
		p := RhoStepping{Rho: tc.rho}
		got := p.Threshold(newLive(tc.sample, tc.active), tc.last)
		if got != tc.want {
			t.Errorf("%s: Threshold(%v, %d, %+v) = %d, want %d", tc.name, tc.sample, tc.active, tc.last, got, tc.want)
		}
		if got < tc.sample[0] {
			t.Errorf("%s: θ = %d < sample[0] = %d violates the progress guarantee", tc.name, got, tc.sample[0])
		}
		// A kept infinite width (ρ extractions) leaves the first bound
		// alone: the θ this policy returned before it took the previous
		// phase into account.
		rho := tc.rho
		if rho == 0 {
			rho = 1 << 14
		}
		uncapped := p.Threshold(newLive(tc.sample, tc.active), LastPhase{Width: top, Taken: rho})
		if got > uncapped {
			t.Errorf("%s: θ = %d past the uncapped θ %d", tc.name, got, uncapped)
		}
	}

	lasts := []LastPhase{{}, {0, 1}, {1, 0}, {8, 1 << 20}, {top, 0}, {top / 3, 1 << 14}}
	for _, sample := range [][]uint64{{7}, {0, 5, 9}, {top - 5, top - 1}} {
		for _, p := range []StepPolicy{DeltaStepping{Delta: 4}, DeltaStepping{Delta: top}, BellmanFordPolicy{}} {
			want := p.Threshold(newLive(sample, len(sample)), LastPhase{})
			for _, last := range lasts {
				if got := p.Threshold(newLive(sample, len(sample)), last); got != want {
					t.Errorf("%s: Threshold(%v, last=%+v) = %d, want %d as with no previous phase", p.Name(), sample, last, got, want)
				}
			}
		}
	}
}

// maxWeightTestGraph is a 3-row ladder whose weights are all MaxUint32 —
// the largest weight the readers accept — so tentative distances climb by
// ~4.3e9 per hop and the Δ-band arithmetic runs close to its limits.
func maxWeightTestGraph(cols int) *graph.Graph {
	var edges []graph.Edge
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < 3; r++ {
		for c := 0; c+1 < cols; c++ {
			edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1), W: math.MaxUint32})
		}
	}
	for c := 0; c < cols; c += 2 {
		edges = append(edges, graph.Edge{U: id(0, c), V: id(1, c), W: math.MaxUint32})
		edges = append(edges, graph.Edge{U: id(1, c), V: id(2, c), W: math.MaxUint32})
	}
	return graph.FromEdges(3*cols, edges, true, graph.BuildOptions{Weighted: true})
}

// TestSSSPMaxWeightBoundedPhases runs every stepping policy — including the
// Δ values whose band ends overflow uint64 — on the max-weight graph and
// checks (a) exact agreement with Dijkstra and (b) that the phase count
// stays linear in n, i.e. every phase made progress and none of the
// thresholds wrapped below sample[0].
func TestSSSPMaxWeightBoundedPhases(t *testing.T) {
	g := maxWeightTestGraph(200)
	want := seq.Dijkstra(g, 0)
	policies := []StepPolicy{
		RhoStepping{},
		RhoStepping{Rho: 1},
		DeltaStepping{Delta: 1},
		DeltaStepping{Delta: math.MaxUint32},
		DeltaStepping{Delta: 1 << 63},
		DeltaStepping{Delta: math.MaxUint64},
		BellmanFordPolicy{},
	}
	// Every policy must converge in at most a phase per distinct distance
	// value (plus slack); a wrapped θ would either loop forever or blow far
	// past this.
	maxPhases := int64(4*g.N + 16)
	for _, pol := range policies {
		got, met, err := SSSP(g, 0, pol, Options{})
		if err != nil {
			t.Fatalf("%s: unexpected error: %v", pol.Name(), err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s(delta/rho variant): dist[%d] = %d, Dijkstra says %d",
					pol.Name(), v, got[v], want[v])
			}
		}
		if met.Phases > maxPhases {
			t.Fatalf("%s: %d phases on a %d-vertex graph (bound %d): threshold not advancing",
				pol.Name(), met.Phases, g.N, maxPhases)
		}
	}
}

// parentThreshold is θ as the policies computed it from a sorted stride
// sample and |live| before they read a Live. TestThresholdParity holds the
// Live-based policies to it bit for bit.
func parentThreshold(p StepPolicy, sample []uint64, active int, last LastPhase) uint64 {
	switch p := p.(type) {
	case DeltaStepping:
		d := p.Delta
		if d == 0 {
			d = 1
		}
		q := sample[0] / d
		if q >= InfWeight/d {
			return InfWeight
		}
		return (q + 1) * d
	case RhoStepping:
		rho := p.Rho
		if rho <= 0 {
			rho = 1 << 14
		}
		theta := sample[len(sample)-1]
		if rho < active {
			theta = sample[min(len(sample)*rho/active, len(sample)-1)]
		}
		w := last.Width
		switch {
		case 2*last.Taken < rho:
			w = max(1, min(w, InfWeight/2)*2)
		case last.Taken-rho > rho:
			w /= 2
		}
		if w < theta-sample[0] {
			theta = sample[0] + w
		}
		return theta
	case BellmanFordPolicy:
		return InfWeight
	}
	panic("parentThreshold: unknown policy")
}

// TestThresholdParity checks that every policy returns the θ it returned
// when the driver sorted a stride sample at every boundary: the same
// sample, read through Live.Min, Max and Quantile instead. The live sizes
// straddle the 1 024-entry sample (stride 1 → 2) and ρ = 2^14 (the
// quantile branch switching on), and the last-phase rows cover each branch
// of the width rule.
func TestThresholdParity(t *testing.T) {
	const top = math.MaxUint64
	policies := []StepPolicy{
		RhoStepping{}, RhoStepping{Rho: 64}, RhoStepping{Rho: 1 << 20},
		DeltaStepping{Delta: 0}, DeltaStepping{Delta: 64}, DeltaStepping{Delta: 1 << 63}, DeltaStepping{Delta: top},
		BellmanFordPolicy{},
	}
	var lasts []LastPhase
	for _, w := range []uint64{0, 1, 37, 5000, top - 3, top} {
		for _, taken := range []int{0, 1, 31, 32, 33, 128, 129, 8191, 8192, 1 << 15, 1<<15 + 1, 1 << 21, 1<<21 + 1} {
			lasts = append(lasts, LastPhase{Width: w, Taken: taken})
		}
	}
	rng := rand.New(rand.NewPCG(7, 33))
	for _, base := range []uint64{0, 1 << 20, top - 1<<14} {
		for _, n := range []int{1, 675, 1024, 1025, 2048, 16384, 16385, 50000} {
			live := make([]farEntry, n)
			for i := range live {
				live[i] = farEntry{v: uint32(i), d: base + rng.Uint64N(1<<13)} // duplicates at every size past 8 K
			}
			// The parent's sample: every stride-th distance, then sorted.
			sample := make([]uint64, 0, 1024)
			stride := n/cap(sample) + 1
			for i := 0; i < n; i += stride {
				sample = append(sample, live[i].d)
			}
			slices.Sort(sample)
			lv := sampleLive(live)
			if lv.Len() != n || lv.Min() != sample[0] || lv.Max() != sample[len(sample)-1] {
				t.Fatalf("base %d, |live| %d: Live{Len %d, Min %d, Max %d}, want {%d, %d, %d}",
					base, n, lv.Len(), lv.Min(), lv.Max(), n, sample[0], sample[len(sample)-1])
			}
			for _, p := range policies {
				for _, last := range lasts {
					want := parentThreshold(p, sample, n, last)
					// A fresh Live per call: each starts from the unsorted sample.
					if got := p.Threshold(sampleLive(live), last); got != want {
						t.Fatalf("%s %+v, base %d, |live| %d, last %+v: θ = %d, the sorted sample gives %d",
							p.Name(), p, base, n, last, got, want)
					}
				}
			}
		}
	}
}
