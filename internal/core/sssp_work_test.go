package core

import (
	"fmt"
	"math"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
	"pasgal/internal/trace"
)

// zeroPolicy always asks for θ = 0: every phase falls through to the
// θ >= live.Min() clamp, the one line the stepping loop's progress and its
// monotone-θ invariant rest on.
type zeroPolicy struct{}

func (zeroPolicy) Threshold(Live, LastPhase) uint64 { return 0 }
func (zeroPolicy) Name() string                     { return "zero" }

// lastRecorder is ρ-stepping that keeps what the driver reports at each
// phase boundary, the width of the θ band it then returned, and how many
// phases sorted their sample (asked for a quantile). The driver calls
// Threshold from its coordinator goroutine only.
type lastRecorder struct {
	RhoStepping
	lasts  []LastPhase
	widths []uint64
	sorts  int
}

func (p *lastRecorder) Threshold(live Live, last LastPhase) uint64 {
	theta := p.RhoStepping.Threshold(live, last)
	p.lasts = append(p.lasts, last)
	p.widths = append(p.widths, theta-live.Min())
	if live.s.sorted {
		p.sorts++
	}
	return theta
}

// TestSSSPReportsLastPhase checks what the stepping driver hands the policy
// at each phase boundary: the width of the θ band it chose at the previous
// boundary (the source's phase has width 0), and the frontier entries that
// phase extracted, summed here from the run's round and phase events.
func TestSSSPReportsLastPhase(t *testing.T) {
	g := gen.AddUniformWeights(gen.SocialRMAT(12, 8, true, 3), 1, 1<<8, 3)
	src := uint32(parallel.MaxIndex(g.N, func(i int) int { return g.Degree(uint32(i)) }))
	rec := &lastRecorder{RhoStepping: RhoStepping{Rho: 64}}
	tr := trace.New()
	if _, _, err := SSSP(g, src, rec, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	taken := []int{0} // per phase; rounds before the first phase event are the source's
	for _, ev := range tr.EventsFor("sssp") {
		switch ev.Kind {
		case trace.KindPhase:
			taken = append(taken, 0)
		case trace.KindRound:
			taken[len(taken)-1] += int(ev.B)
		}
	}
	if len(rec.lasts) != len(taken)-1 || len(rec.lasts) < 4 {
		t.Fatalf("%d Threshold calls for %d phase events; want one per phase, and several", len(rec.lasts), len(taken)-1)
	}
	for i, last := range rec.lasts {
		want := LastPhase{Width: 0, Taken: taken[i]}
		if i > 0 {
			want.Width = rec.widths[i-1]
		}
		if last != want || last.Taken <= 0 {
			t.Errorf("phase %d: driver reported %+v, want %+v", i+1, last, want)
		}
	}
}

// TestSSSPSortsOnlyForQuantiles pins the sort-free phase boundary: ρ-stepping
// reads Live.Max when ρ >= |live| and sorts the sample only for a
// quantile. On a grid smaller than ρ no phase may sort; with ρ = 64 the
// wavefront outgrows ρ and some phase must. A driver or policy that sorts
// every sample again fails the first half.
func TestSSSPSortsOnlyForQuantiles(t *testing.T) {
	g := gen.AddUniformWeights(gen.SampledGrid(60, 60, .94, false, 5), 1, 1<<8, 5)
	want := seq.Dijkstra(g, 0)
	for _, tc := range []struct {
		rho    int
		sorted bool
	}{{0, false}, {64, true}} {
		rec := &lastRecorder{RhoStepping: RhoStepping{Rho: tc.rho}}
		got, met, err := SSSP(g, 0, rec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("ρ=%d: dist[%d] = %d, Dijkstra says %d", tc.rho, v, got[v], want[v])
			}
		}
		if (rec.sorts > 0) != tc.sorted {
			t.Errorf("ρ=%d: %d of %d phases sorted their sample, want sorting: %v", tc.rho, rec.sorts, met.Phases, tc.sorted)
		}
		t.Logf("ρ=%d: %d phases, %d sorted", tc.rho, met.Phases, rec.sorts)
	}
}

// farInserts sums, over a traced run's phase events, the first-discovery
// entries each phase boundary drained from the far bag.
func farInserts(tr *trace.Tracer, algo string) int64 {
	var total int64
	for _, ev := range tr.EventsFor(algo) {
		if ev.Kind == trace.KindPhase {
			total += ev.B
		}
	}
	return total
}

// TestSSSPWorkBound pins the stepping loop's work efficiency next to its
// answers. Each (vertex, distance) pair is scanned once and the far bag
// sees a vertex once, so on a low-diameter graph the bounded-step policies
// must stay within a small multiple of Dijkstra's m relaxations and n
// inserts. Before the scan stamps the ρ-stepping rows visited 4.3–5.4·m
// here (7.3·m at the repository benchmark's scale): the bags are multisets
// and a vertex extracted twice at one distance re-scanned its whole arc
// list. With the stamps but before ρ-stepping sized its θ band from the
// previous phase they visited 1.77–2.45·m: a θ = max(live) band held most
// of the graph and was drained at one fixed θ. They now visit ≈ 1.0·m and
// are held to 1.3·m. The same rows run PointToPoint to a few targets, whose
// pruning bound widens the first-discovery rule.
func TestSSSPWorkBound(t *testing.T) {
	social := gen.SocialRMAT(14, 14, true, 1)
	graphs := []struct {
		name    string
		g       *graph.Graph
		bounded bool // assert the work bounds (low-diameter, positive weights)
	}{
		{"uniform", gen.AddUniformWeights(social, 1, 1<<8, 1), true},
		// Zero-weight arcs: many vertices tie at one distance, so the
		// stamp's "already scanned at du" case is the common one.
		{"zero-weights", gen.AddUniformWeights(social, 0, 3, 2), false},
		// MaxUint32 weights: Δ-band ends saturate θ to InfWeight.
		{"max-weights", maxWeightTestGraph(200), false},
	}
	policies := []struct {
		name  string
		pol   StepPolicy
		bound float64 // arcs visited ≤ bound·m on the bounded graphs; 0: unbounded
	}{
		{"rho", RhoStepping{}, 1.3},
		{"delta-64", DeltaStepping{Delta: 1 << 6}, 4},
		{"delta-max", DeltaStepping{Delta: math.MaxUint64}, 0},
		{"bf", BellmanFordPolicy{}, 0},
		{"zero", zeroPolicy{}, 0},
	}
	for _, gc := range graphs {
		// A maximum-degree source reaches the bulk of a power-law graph.
		src := uint32(parallel.MaxIndex(gc.g.N, func(i int) int { return gc.g.Degree(uint32(i)) }))
		want := seq.Dijkstra(gc.g, src)
		n, m := int64(gc.g.N), int64(len(gc.g.Edges))
		for _, pc := range policies {
			if pc.name == "zero" && gc.name == "uniform" {
				continue // one phase per distinct distance: correct, and slow
			}
			for _, tau := range []int{1, 0} {
				row := fmt.Sprintf("%s/%s/tau=%d", gc.name, pc.name, tau)
				tr := trace.New()
				got, met, err := SSSP(gc.g, src, pc.pol, Options{Tau: tau, Tracer: tr})
				if err != nil {
					t.Fatalf("%s: %v", row, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s: dist[%d] = %d, Dijkstra says %d", row, v, got[v], want[v])
					}
				}
				ins := farInserts(tr, "sssp")
				if ins > n {
					t.Errorf("%s: %d far-bag inserts on %d vertices: not first-discovery only", row, ins, n)
				}
				if limit := int64(pc.bound * float64(m)); gc.bounded && pc.bound > 0 && met.EdgesVisited > limit {
					t.Errorf("%s: visited %d arcs, bound %.1f·m = %d", row, met.EdgesVisited, pc.bound, limit)
				}
				t.Logf("%s: %d rounds, %d phases, %.2f·m arcs, %d far inserts",
					row, met.Rounds, met.Phases, float64(met.EdgesVisited)/float64(m), ins)
				for _, dst := range []uint32{src, uint32(n / 3), uint32(n - 1)} {
					d, _, err := PointToPoint(gc.g, src, dst, pc.pol, Options{Tau: tau})
					if err != nil || d != want[dst] {
						t.Fatalf("%s: PointToPoint(%d, %d) = %d, %v; Dijkstra says %d", row, src, dst, d, err, want[dst])
					}
				}
			}
		}
	}
}
