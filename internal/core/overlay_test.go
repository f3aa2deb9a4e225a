package core

import (
	"math/rand"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// Functional twins for the kernels in this package on overlay graphs
// (epoch snapshots from internal/delta): internal/delta's differential
// suite sweeps the full shape matrix end to end, but these in-package
// tests pin the representative branches — the merged bulk push scan, the
// lazy-transpose pull round, the weighted AppendArcs relaxation, and
// goal-directed pruning — directly against a plain rebuild of the same
// post-edit graph.

// overlayTwin applies a deterministic random edit batch (tombstones on a
// sixth of the base arcs, fresh patch arcs) and returns the overlay next
// to a plain CSR of the identical post-edit graph.
func overlayTwin(t *testing.T, g *graph.Graph, seed int64) (*graph.Overlay, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dels, adds []graph.Edge
	for u := uint32(0); int(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if (g.Directed || u < v) && rng.Intn(6) == 0 {
				dels = append(dels, graph.Edge{U: u, V: v})
			}
		}
	}
	n := uint32(g.N)
	for i := 0; i < g.N/3; i++ {
		u, v := rng.Uint32()%n, rng.Uint32()%n
		if u == v {
			continue
		}
		adds = append(adds, graph.Edge{U: u, V: v, W: 1 + rng.Uint32()%40})
	}
	o := graph.OverlayFromEdits(g, dels, adds)
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invariants: %v", err)
	}
	return o, o.Materialize()
}

// TestOverlayBFSMatchesPlain drives both BFS round bodies: the
// "pull" row forces a bottom-up cut of one so the lazy overlay transpose
// is exercised on every graph, "push" pins the top-down-only route, and
// "novgc" spills every discovered vertex through the shared frontier.
func TestOverlayBFSMatchesPlain(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat-directed": gen.SocialRMAT(10, 16, true, 41),
		"grid":          gen.Grid2D(22, 22, false, 42),
		"er-sparse":     gen.ER(900, 1400, true, 43), // disconnected
	} {
		o, mat := overlayTwin(t, g, 44)
		src := uint32(g.N / 3)
		for oname, opt := range map[string]Options{
			"default": {},
			"pull":    {DenseFrac: 0.0001},
			"push":    {DisableDirectionOpt: true},
			"novgc":   {Tau: 1},
		} {
			want, _, err := BFS(mat, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := BFS(o, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: dist[%d] = %d overlay, %d plain",
						name, oname, v, got[v], want[v])
				}
			}
		}
	}
}

// TestOverlayReachableMatchesPlain covers the overlay branch of the
// multi-source local search, default and budget-starved.
func TestOverlayReachableMatchesPlain(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"er-sparse": gen.ER(800, 1200, true, 51), // disconnected
		"rmat":      gen.SocialRMAT(9, 8, true, 52),
		"grid":      gen.Grid2D(20, 20, false, 53),
	} {
		o, mat := overlayTwin(t, g, 54)
		srcs := []uint32{0, uint32(g.N / 2)}
		for oname, opt := range map[string]Options{"default": {}, "novgc": {Tau: 1}} {
			want, _, err := Reachable(mat, srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Reachable(o, srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: reach[%d] = %v overlay, %v plain",
						name, oname, v, got[v], want[v])
				}
			}
		}
	}
}

// TestOverlaySSSPMatchesPlain relaxes the merged weighted patch lists
// (AppendArcs) under the default ρ-stepping, Δ-stepping, Bellman–Ford
// (θ = ∞ disables the local budget), and budget-starved configurations.
func TestOverlaySSSPMatchesPlain(t *testing.T) {
	g := gen.AddUniformWeights(gen.ER(700, 2800, true, 61), 1, 50, 62)
	o, mat := overlayTwin(t, g, 63)
	src := uint32(1)
	for pname, policy := range map[string]StepPolicy{
		"rho":   nil,
		"delta": DeltaStepping{Delta: 32},
		"bf":    BellmanFordPolicy{},
	} {
		for oname, opt := range map[string]Options{"default": {}, "novgc": {Tau: 1}} {
			want, _, err := SSSP(mat, src, policy, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := SSSP(o, src, policy, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: dist[%d] = %d overlay, %d plain",
						pname, oname, v, got[v], want[v])
				}
			}
		}
	}
}

// TestOverlayPointToPointMatchesPlain covers the goal-directed overlay
// scan: reachable pairs, the src == dst shortcut, an unreachable pair,
// and the budget-starved configuration.
func TestOverlayPointToPointMatchesPlain(t *testing.T) {
	g := gen.AddUniformWeights(gen.ER(700, 2800, true, 71), 1, 50, 72)
	o, mat := overlayTwin(t, g, 73)
	pairs := [][2]uint32{
		{0, uint32(g.N - 1)},
		{uint32(g.N / 2), 1},
		{5, 5}, // shortcut
	}
	for oname, opt := range map[string]Options{"default": {}, "novgc": {Tau: 1}} {
		for _, p := range pairs {
			want, _, err := PointToPoint(mat, p[0], p[1], nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := PointToPoint(o, p[0], p[1], nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %d->%d: dist %d overlay, %d plain", oname, p[0], p[1], got, want)
			}
		}
	}
	// An unreachable destination: a sparse two-component graph with no
	// patch arcs (adds could bridge the components).
	iso := gen.AddUniformWeights(gen.ER(200, 100, true, 74), 1, 9, 75)
	var dels []graph.Edge
	for u := uint32(0); int(u) < iso.N && dels == nil; u++ {
		if nb := iso.Neighbors(u); len(nb) > 0 {
			dels = append(dels, graph.Edge{U: u, V: nb[0]})
		}
	}
	io := graph.OverlayFromEdits(iso, dels, nil)
	imat := io.Materialize()
	for dst := uint32(1); dst < uint32(iso.N); dst++ {
		want, _, err := PointToPoint(imat, 0, dst, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := PointToPoint(io, 0, dst, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("0->%d: dist %d overlay, %d plain", dst, got, want)
		}
		if want == InfWeight {
			return // found and verified an unreachable pair; done
		}
	}
	t.Fatal("no unreachable pair in the sparse graph; strengthen the generator seed")
}
