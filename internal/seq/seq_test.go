package seq

import (
	"math/rand/v2"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// --- BFS ---

func TestBFSPath(t *testing.T) {
	g := gen.Chain(10, false)
	dist := BFS(g, 0)
	for i := 0; i < 10; i++ {
		if dist[i] != uint32(i) {
			t.Fatalf("dist[%d] = %d", i, dist[i])
		}
	}
	dist = BFS(g, 5)
	if dist[0] != 5 || dist[9] != 4 {
		t.Fatalf("mid-source distances wrong: %v", dist)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}}, true, graph.BuildOptions{})
	dist := BFS(g, 0)
	if dist[1] != 1 || dist[2] != graph.InfDist || dist[3] != graph.InfDist {
		t.Fatalf("distances: %v", dist)
	}
}

// BFS distances must equal unit-weight shortest paths.
func TestBFSMatchesUnitDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.IntN(300)
		g := gen.ER(n, 3*n, trial%2 == 0, uint64(trial))
		wg := gen.AddUniformWeights(g, 1, 1, 1)
		src := uint32(rng.IntN(n))
		bfs := BFS(g, src)
		dij := Dijkstra(wg, src)
		for v := 0; v < n; v++ {
			want := dij[v]
			got := uint64(bfs[v])
			if bfs[v] == graph.InfDist {
				got = InfWeight
			}
			if got != want {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, got, want)
			}
		}
	}
}

// --- Tarjan SCC ---

// reachBrute computes reachability from every vertex by DFS (oracle).
func reachBrute(g *graph.Graph) [][]bool {
	n := g.N
	reach := make([][]bool, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		stack := []uint32{uint32(s)}
		reach[s][s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Neighbors(u) {
				if !reach[s][v] {
					reach[s][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return reach
}

// SamePartition checks two labelings induce the same partition.
func samePartition(a, b []uint32) bool {
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := bwd[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

func TestTarjanAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.IntN(60)
		g := gen.ER(n, rng.IntN(4*n+1), true, uint64(100+trial))
		comp, count := TarjanSCC(g)
		reach := reachBrute(g)
		// Same SCC iff mutually reachable.
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := reach[u][v] && reach[v][u]
				if (comp[u] == comp[v]) != same {
					t.Fatalf("trial %d: comp[%d]=%d comp[%d]=%d but mutual=%v",
						trial, u, comp[u], v, comp[v], same)
				}
			}
		}
		// Count matches distinct labels.
		seen := map[uint32]bool{}
		for _, c := range comp {
			seen[c] = true
		}
		if len(seen) != count {
			t.Fatalf("trial %d: count=%d distinct=%d", trial, count, len(seen))
		}
	}
}

func TestTarjanKnownCases(t *testing.T) {
	// Directed cycle: one SCC.
	if _, c := TarjanSCC(gen.Cycle(10, true)); c != 1 {
		t.Fatalf("cycle SCCs = %d", c)
	}
	// Directed chain: n SCCs.
	if _, c := TarjanSCC(gen.Chain(10, true)); c != 10 {
		t.Fatalf("chain SCCs = %d", c)
	}
	// Two cycles joined by a one-way edge: 2 SCCs.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 2}}
	if _, c := TarjanSCC(graph.FromEdges(4, edges, true, graph.BuildOptions{})); c != 2 {
		t.Fatalf("two-cycle SCCs = %d", c)
	}
}

// --- Hopcroft–Tarjan BCC ---

func checkBCCInvariants(t *testing.T, g *graph.Graph, res BCCResult, name string) {
	t.Helper()
	// Every arc labeled; label symmetric across reverse arcs.
	seen := map[uint32]bool{}
	for u := uint32(0); u < uint32(g.N); u++ {
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			l := res.ArcLabel[e]
			if l == graph.None {
				t.Fatalf("%s: arc (%d,%d) unlabeled", name, u, g.Edges[e])
			}
			seen[l] = true
			r := g.ReverseArc(u, e)
			if res.ArcLabel[r] != l {
				t.Fatalf("%s: asymmetric labels on edge (%d,%d)", name, u, g.Edges[e])
			}
		}
	}
	if len(seen) != res.NumBCC {
		t.Fatalf("%s: NumBCC=%d distinct=%d", name, res.NumBCC, len(seen))
	}
	// Articulation points are exactly vertices incident to >= 2 labels.
	for v := uint32(0); v < uint32(g.N); v++ {
		want := CountDistinctLabels(g, res.ArcLabel, v) >= 2
		if res.IsArtPort[v] != want {
			t.Fatalf("%s: artic[%d]=%v, incident labels say %v", name, v, res.IsArtPort[v], want)
		}
	}
}

func TestBCCKnownCases(t *testing.T) {
	// Path: every edge its own BCC; interior vertices articulate.
	g := gen.Chain(5, false)
	res := HopcroftTarjanBCC(g)
	if res.NumBCC != 4 {
		t.Fatalf("path BCCs = %d, want 4", res.NumBCC)
	}
	checkBCCInvariants(t, g, res, "path")
	for v := 1; v <= 3; v++ {
		if !res.IsArtPort[v] {
			t.Fatalf("path: vertex %d should articulate", v)
		}
	}
	if res.IsArtPort[0] || res.IsArtPort[4] {
		t.Fatal("path endpoints should not articulate")
	}

	// Cycle: one BCC, no articulation points.
	g = gen.Cycle(6, false)
	res = HopcroftTarjanBCC(g)
	if res.NumBCC != 1 {
		t.Fatalf("cycle BCCs = %d", res.NumBCC)
	}
	checkBCCInvariants(t, g, res, "cycle")

	// Two triangles sharing vertex 2: two BCCs, vertex 2 articulates.
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
	}
	g = graph.FromEdges(5, edges, false, graph.BuildOptions{})
	res = HopcroftTarjanBCC(g)
	if res.NumBCC != 2 {
		t.Fatalf("bowtie BCCs = %d", res.NumBCC)
	}
	if !res.IsArtPort[2] {
		t.Fatal("bowtie: vertex 2 should articulate")
	}
	checkBCCInvariants(t, g, res, "bowtie")

	// Star: each edge its own BCC; center articulates.
	g = gen.Star(5)
	res = HopcroftTarjanBCC(g)
	if res.NumBCC != 4 || !res.IsArtPort[0] {
		t.Fatalf("star: NumBCC=%d artic0=%v", res.NumBCC, res.IsArtPort[0])
	}
	checkBCCInvariants(t, g, res, "star")

	// Theta graph (two vertices joined by three internally disjoint
	// paths): a single BCC.
	edges = []graph.Edge{
		{U: 0, V: 2}, {U: 2, V: 1},
		{U: 0, V: 3}, {U: 3, V: 1},
		{U: 0, V: 4}, {U: 4, V: 1},
	}
	g = graph.FromEdges(5, edges, false, graph.BuildOptions{})
	res = HopcroftTarjanBCC(g)
	if res.NumBCC != 1 {
		t.Fatalf("theta BCCs = %d", res.NumBCC)
	}
	checkBCCInvariants(t, g, res, "theta")

	// Isolated vertices: zero BCCs.
	g = graph.FromEdges(3, nil, false, graph.BuildOptions{})
	res = HopcroftTarjanBCC(g)
	if res.NumBCC != 0 {
		t.Fatalf("empty BCCs = %d", res.NumBCC)
	}
}

// Removing an articulation point must increase the component count of its
// connected component; removing a non-articulation vertex must not.
func TestBCCArticulationSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.IntN(40)
		g := gen.ER(n, rng.IntN(3*n)+1, false, uint64(200+trial))
		res := HopcroftTarjanBCC(g)
		checkBCCInvariants(t, g, res, "random")
		comps := countComponents(g, graph.None)
		for v := uint32(0); v < uint32(n); v++ {
			without := countComponents(g, v)
			// Removing v drops it from the count; articulation iff the
			// rest splits further.
			split := without > comps-1+boolInt(g.Degree(v) == 0)
			if g.Degree(v) == 0 {
				continue // isolated vertices are never articulation points
			}
			if res.IsArtPort[v] != (without > comps) {
				t.Fatalf("trial %d: artic[%d]=%v but components %d -> %d",
					trial, v, res.IsArtPort[v], comps, without)
			}
			_ = split
		}
	}
}

// TestBCCLoopsAndParallelArcs pins the labels the oracle gives self-loops
// and parallel arcs: a loop at a component's minimum vertex is a component
// of its own, a loop elsewhere goes with the vertex's parent edge, and the
// copies of an edge share its label.
func TestBCCLoopsAndParallelArcs(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 2}, // a path with loops on its root and its leaf
		{U: 3, V: 4}, {U: 3, V: 4}, {U: 4, V: 3}, // a triple edge
		{U: 5, V: 5}, {U: 5, V: 5}, // a vertex with only loops; 6 is isolated
		{U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 8}, {U: 9, V: 7}, {U: 9, V: 9}, // a triangle, one side doubled, a loop off the root
	}
	g := graph.FromEdges(10, edges, false, graph.BuildOptions{KeepSelfLoops: true, KeepDuplicates: true})
	res := HopcroftTarjanBCC(g)
	label := func(u, v uint32) uint32 {
		l := graph.None
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			if g.Edges[e] != v {
				continue
			}
			if l != graph.None && res.ArcLabel[e] != l {
				t.Fatalf("copies of arc %d->%d labeled %d and %d", u, v, l, res.ArcLabel[e])
			}
			l = res.ArcLabel[e]
		}
		if l == graph.None {
			t.Fatalf("arc %d->%d unlabeled", u, v)
		}
		return l
	}
	for u := uint32(0); u < uint32(g.N); u++ {
		for _, v := range g.Neighbors(u) {
			if label(u, v) != label(v, u) {
				t.Fatalf("edge {%d,%d}: the two directions differ", u, v)
			}
		}
	}
	distinct := []uint32{label(0, 0), label(0, 1), label(1, 2), label(3, 4), label(5, 5), label(7, 8)}
	seen := map[uint32]bool{}
	for _, l := range distinct {
		if seen[l] {
			t.Fatalf("labels %v: two components share one", distinct)
		}
		seen[l] = true
	}
	if res.NumBCC != len(distinct) {
		t.Fatalf("NumBCC = %d, want %d", res.NumBCC, len(distinct))
	}
	if label(2, 2) != label(1, 2) {
		t.Fatal("the leaf's loop does not carry its parent edge's label")
	}
	if label(9, 9) != label(7, 8) || label(8, 9) != label(7, 8) || label(9, 7) != label(7, 8) {
		t.Fatal("the triangle, its doubled side and its loop are not one component")
	}
	for v, want := range []bool{true, true, false, false, false, false, false, false, false, false} {
		if res.IsArtPort[v] != want {
			t.Fatalf("articulation[%d] = %v, want %v", v, res.IsArtPort[v], want)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countComponents counts connected components, optionally skipping one
// vertex (graph.None = skip none). Skipped vertices are not counted.
func countComponents(g *graph.Graph, skip uint32) int {
	n := g.N
	vis := make([]bool, n)
	count := 0
	for s := 0; s < n; s++ {
		if vis[s] || uint32(s) == skip {
			continue
		}
		count++
		stack := []uint32{uint32(s)}
		vis[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Neighbors(u) {
				if v != skip && !vis[v] {
					vis[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return count
}

// --- Dijkstra / Bellman–Ford ---

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.IntN(200)
		g := gen.AddUniformWeights(
			gen.ER(n, 4*n, trial%2 == 0, uint64(300+trial)), 1, 1000, uint64(trial))
		src := uint32(rng.IntN(n))
		d1 := Dijkstra(g, src)
		d2 := BellmanFord(g, src)
		for v := 0; v < n; v++ {
			if d1[v] != d2[v] {
				t.Fatalf("trial %d: dist[%d]: dijkstra=%d bf=%d", trial, v, d1[v], d2[v])
			}
		}
	}
}

func TestDijkstraChain(t *testing.T) {
	g := gen.AddUniformWeights(gen.Chain(100, true), 2, 2, 1)
	dist := Dijkstra(g, 0)
	for i := 0; i < 100; i++ {
		if dist[i] != uint64(2*i) {
			t.Fatalf("dist[%d] = %d", i, dist[i])
		}
	}
}

// Deep graphs must not blow the stack (iterative implementations).
func TestDeepGraphsIterative(t *testing.T) {
	n := 200000
	chain := gen.Chain(n, false)
	if d := BFS(chain, 0); d[n-1] != uint32(n-1) {
		t.Fatal("bfs deep chain wrong")
	}
	dchain := gen.Chain(n, true)
	if _, c := TarjanSCC(dchain); c != n {
		t.Fatal("tarjan deep chain wrong")
	}
	res := HopcroftTarjanBCC(chain)
	if res.NumBCC != n-1 {
		t.Fatal("bcc deep chain wrong")
	}
}
