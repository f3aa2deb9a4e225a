package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// --- k-core ---

func TestKCoreKnownCases(t *testing.T) {
	// A path: every vertex has coreness 1.
	core, maxc, _, _ := KCore(gen.Chain(50, false), Options{})
	if maxc != 1 {
		t.Fatalf("path degeneracy = %d", maxc)
	}
	for v, c := range core {
		if c != 1 {
			t.Fatalf("path coreness[%d] = %d", v, c)
		}
	}
	// A cycle: coreness 2 everywhere.
	core, maxc, _, _ = KCore(gen.Cycle(30, false), Options{})
	if maxc != 2 || core[7] != 2 {
		t.Fatalf("cycle coreness wrong: max=%d", maxc)
	}
	// Isolated vertices: coreness 0.
	core, maxc, _, _ = KCore(graph.FromEdges(3, nil, false, graph.BuildOptions{}), Options{})
	if maxc != 0 || core[0] != 0 {
		t.Fatal("isolated coreness wrong")
	}
	// A triangle with a tail: triangle coreness 2, tail 1.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 4}}
	core, maxc, _, _ = KCore(graph.FromEdges(5, edges, false, graph.BuildOptions{}), Options{})
	if maxc != 2 || core[0] != 2 || core[1] != 2 || core[2] != 2 || core[3] != 1 || core[4] != 1 {
		t.Fatalf("triangle+tail coreness wrong: %v", core)
	}
}

func TestKCoreMatchesSequential(t *testing.T) {
	suite := map[string]*graph.Graph{
		"rmat":   gen.SocialRMAT(11, 8, false, 1),
		"grid":   gen.Grid2D(40, 40, false, 2),
		"knn":    gen.KNN(2000, 4, 8, false, 3),
		"er":     gen.ER(1000, 4000, false, 4),
		"sparse": gen.ER(1200, 500, false, 5),
		"mesh":   gen.TriGrid(30, 30),
	}
	for name, g := range suite {
		want, wantMax := seq.KCore(g)
		for _, tau := range []int{1, 64, 0} {
			got, gotMax, met, _ := KCore(g, Options{Tau: tau})
			if gotMax != wantMax {
				t.Fatalf("%s tau=%d: degeneracy %d, want %d", name, tau, gotMax, wantMax)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s tau=%d: coreness[%d] = %d, want %d",
						name, tau, v, got[v], want[v])
				}
			}
			if met.Phases == 0 {
				t.Fatalf("%s: no peeling phases recorded", name)
			}
		}
	}
}

// A directed graph peels as its symmetric closure: a self-loop drops out,
// and a reciprocal pair or a run of parallel arcs is one edge, as in
// Graph.Symmetrized, whose copy KCore never builds.
func TestKCoreDirectedIsSymmetrized(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(200)
		var edges []graph.Edge
		for i := rng.IntN(4 * n); i >= 0; i-- {
			u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
			edges = append(edges, graph.Edge{U: u, V: v})
			switch rng.IntN(4) {
			case 0:
				edges = append(edges, graph.Edge{U: v, V: u}) // reciprocal
			case 1:
				edges = append(edges, graph.Edge{U: u, V: u}) // self-loop
			case 2:
				edges = append(edges, graph.Edge{U: u, V: v}) // parallel
			}
		}
		g := graph.FromEdges(n, edges, true, graph.BuildOptions{KeepSelfLoops: true, KeepDuplicates: true})
		sym := g.Symmetrized()
		want, wantMax := seq.KCore(sym)
		tau := 1 + rng.IntN(64)
		got, gotMax, met, err := KCore(g, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		if gotMax != wantMax {
			t.Fatalf("trial %d: degeneracy %d, want %d", trial, gotMax, wantMax)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: coreness[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
		// The peel walks the same lists as on the copy, so the work is the
		// same too.
		_, _, symMet, _ := KCore(sym, Options{Tau: tau})
		if met.EdgesVisited != symMet.EdgesVisited {
			t.Fatalf("trial %d: %d edges visited, %d on the symmetrized copy",
				trial, met.EdgesVisited, symMet.EdgesVisited)
		}
		verts, density, _, _ := DensestSubgraph(g, Options{})
		symVerts, symDensity, _, _ := DensestSubgraph(sym, Options{})
		if density != symDensity || !slices.Equal(verts, symVerts) {
			t.Fatalf("trial %d: densest %v (%.3f), on the symmetrized copy %v (%.3f)",
				trial, verts, density, symVerts, symDensity)
		}
	}
}

// VGC must cut peeling rounds on a long chain reaction: peeling a path
// level-synchronously takes one round per vertex.
func TestKCoreVGCReducesRounds(t *testing.T) {
	g := gen.Chain(20000, false)
	_, _, metVGC, _ := KCore(g, Options{Tau: 512})
	_, _, metNo, _ := KCore(g, Options{Tau: 1})
	if metVGC.Rounds*5 >= metNo.Rounds {
		t.Fatalf("VGC peeling rounds %d not far below %d", metVGC.Rounds, metNo.Rounds)
	}
}

func TestKCoreRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.IntN(300)
		g := gen.ER(n, rng.IntN(5*n+1), false, uint64(trial))
		want, wantMax := seq.KCore(g)
		got, gotMax, _, _ := KCore(g, Options{Tau: 1 + rng.IntN(64)})
		if gotMax != wantMax {
			t.Fatalf("trial %d: degeneracy %d want %d", trial, gotMax, wantMax)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: coreness[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
	}
}

// --- point-to-point ---

func TestPointToPointMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	suite := []*graph.Graph{
		gen.AddUniformWeights(gen.SampledGrid(40, 40, 0.9, false, 1), 1, 100, 2),
		gen.AddUniformWeights(gen.SocialRMAT(10, 8, true, 3), 1, 50, 4),
		gen.AddUniformWeights(gen.ER(800, 2400, true, 5), 1, 1000, 6),
		gen.AddUniformWeights(gen.ER(600, 300, false, 7), 1, 10, 8), // disconnected
	}
	for gi, g := range suite {
		full := seq.Dijkstra(g, 0)
		for trial := 0; trial < 8; trial++ {
			dst := uint32(rng.IntN(g.N))
			got, _, _ := PointToPoint(g, 0, dst, nil, Options{})
			if got != full[dst] {
				t.Fatalf("graph %d dst %d: got %d, want %d", gi, dst, got, full[dst])
			}
		}
		// Unreachable and trivial cases.
		if d, _, _ := PointToPoint(g, 5, 5, nil, Options{}); d != 0 {
			t.Fatal("src == dst should be 0")
		}
	}
}

func TestPointToPointPrunes(t *testing.T) {
	// On a long weighted grid, a nearby target must touch far fewer edges
	// than the full SSSP.
	g := gen.AddUniformWeights(gen.Grid2D(30, 600, false, 1), 1, 10, 2)
	src := uint32(0)
	dst := uint32(5) // a few columns away
	_, metPTP, _ := PointToPoint(g, src, dst, nil, Options{})
	_, metFull, _ := SSSP(g, src, nil, Options{})
	if metPTP.EdgesVisited*2 >= metFull.EdgesVisited {
		t.Fatalf("PTP visited %d edges, full SSSP %d — pruning ineffective",
			metPTP.EdgesVisited, metFull.EdgesVisited)
	}
}

func TestPointToPointPolicies(t *testing.T) {
	g := gen.AddUniformWeights(gen.SampledGrid(30, 30, 0.9, false, 9), 1, 20, 10)
	want := seq.Dijkstra(g, 0)
	for _, pol := range []StepPolicy{RhoStepping{Rho: 32}, DeltaStepping{Delta: 16},
		BellmanFordPolicy{}} {
		got, _, _ := PointToPoint(g, 0, uint32(g.N-1), pol, Options{})
		if got != want[g.N-1] {
			t.Fatalf("%s: got %d, want %d", pol.Name(), got, want[g.N-1])
		}
	}
}
