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
// θ >= sample[0] clamp, the one line the stepping loop's progress and its
// monotone-θ invariant rest on.
type zeroPolicy struct{}

func (zeroPolicy) Threshold([]uint64, int) uint64 { return 0 }
func (zeroPolicy) Name() string                   { return "zero" }

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
// list. The same rows run PointToPoint to a few targets, whose pruning
// bound widens the first-discovery rule.
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
		name    string
		pol     StepPolicy
		bounded bool
	}{
		{"rho", RhoStepping{}, true},
		{"delta-64", DeltaStepping{Delta: 1 << 6}, true},
		{"delta-max", DeltaStepping{Delta: math.MaxUint64}, false},
		{"bf", BellmanFordPolicy{}, false},
		{"zero", zeroPolicy{}, false},
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
				if gc.bounded && pc.bounded && met.EdgesVisited > 4*m {
					t.Errorf("%s: visited %d arcs, bound 4·m = %d", row, met.EdgesVisited, 4*m)
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
