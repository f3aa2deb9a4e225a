package bench

import (
	"fmt"
	"testing"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/msbfs"
	"pasgal/internal/seq"
)

// diffShape is one entry of the differential-testing table: a graph, some
// of them with self-loops or parallel edges. Every problem runs on every
// shape; extra arcs only add redundant relaxations, and the BCC oracle
// states the labels loops and parallel arcs get.
type diffShape struct {
	name string
	g    *graph.Graph
}

// loopyEdges builds an edge list laced with self-loops and duplicates on
// top of a chain backbone, so the degenerate shapes stay connected enough
// to be interesting.
func loopyEdges(n int, seed uint64, selfLoops, dups bool) []graph.Edge {
	var edges []graph.Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1)})
	}
	s := seed
	next := func(mod int) uint32 {
		s = s*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15
		return uint32((s >> 33) % uint64(mod))
	}
	for i := 0; i < n; i++ {
		u, v := next(n), next(n)
		edges = append(edges, graph.Edge{U: u, V: v})
		if selfLoops && i%3 == 0 {
			edges = append(edges, graph.Edge{U: u, V: u})
		}
		if dups && i%2 == 0 {
			edges = append(edges, graph.Edge{U: u, V: v}, graph.Edge{U: u, V: v})
		}
	}
	return edges
}

// diffShapes is the ~20-shape randomized matrix: every structural regime
// the library claims to handle, including the degenerate ones that
// historically break frontier algorithms (empty, single-vertex,
// disconnected, self-loops, parallel edges).
func diffShapes(seed uint64) []diffShape {
	loopOpt := graph.BuildOptions{KeepSelfLoops: true}
	dupOpt := graph.BuildOptions{KeepDuplicates: true}
	bothOpt := graph.BuildOptions{KeepSelfLoops: true, KeepDuplicates: true}
	return []diffShape{
		{name: "single-vertex", g: graph.FromEdges(1, nil, false, graph.BuildOptions{})},
		{name: "two-isolated", g: graph.FromEdges(2, nil, true, graph.BuildOptions{})},
		{name: "isolated-50", g: graph.FromEdges(50, nil, false, graph.BuildOptions{})},
		{name: "chain", g: gen.Chain(300, false)},
		{name: "chain-dir", g: gen.Chain(300, true)},
		{name: "cycle-dir", g: gen.Cycle(256, true)},
		{name: "star", g: gen.Star(200)},
		{name: "binary-tree", g: gen.CompleteBinaryTree(511)},
		{name: "grid", g: gen.Grid2D(18, 23, false, seed)},
		{name: "sampled-grid-dir", g: gen.SampledGrid(20, 20, 0.85, true, seed+1)},
		{name: "trigrid", g: gen.TriGrid(15, 15)},
		{name: "perforated", g: gen.PerforatedGrid(20, 20, 6, 2, seed+2)},
		{name: "er-disconnected", g: gen.ER(400, 200, true, seed+3)},
		{name: "er-dense", g: gen.ER(300, 2400, true, seed+4)},
		{name: "rmat", g: gen.SocialRMAT(8, 8, true, seed+5)},
		{name: "weblike", g: gen.WebLike(500, 5, 0.3, 20, seed+6)},
		{name: "rgg", g: gen.RGG(400, 6, seed+7)},
		{name: "knn", g: gen.KNN(400, 3, 4, false, seed+8)},
		{name: "watts-strogatz", g: gen.WattsStrogatz(300, 6, 0.1, seed+9)},
		{name: "barabasi-albert", g: gen.BarabasiAlbert(300, 3, seed+10)},
		{name: "hypercube", g: gen.Hypercube(8)},
		{name: "random-tree", g: gen.Tree(500, seed+11)},
		{name: "self-loops-dir",
			g: graph.FromEdges(120, loopyEdges(120, seed+12, true, false), true, loopOpt)},
		{name: "multi-edges-dir",
			g: graph.FromEdges(120, loopyEdges(120, seed+13, false, true), true, dupOpt)},
		{name: "loops-and-dups",
			g: graph.FromEdges(150, loopyEdges(150, seed+14, true, true), false, bothOpt)},
	}
}

// diffSources picks the source vertices a shape is tested from: the
// max-degree vertex, vertex 0, and the last vertex (which is isolated or
// peripheral in several shapes).
func diffSources(g *graph.Graph) []uint32 {
	srcs := []uint32{gen.PickSource(g)}
	for _, s := range []uint32{0, uint32(g.N - 1)} {
		if s != srcs[0] {
			srcs = append(srcs, s)
		}
	}
	return srcs
}

// TestDifferentialBFS cross-checks every BFS implementation against the
// sequential queue oracle, element for element, from multiple sources.
func TestDifferentialBFS(t *testing.T) {
	for _, sh := range diffShapes(0xD1FF) {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, src := range diffSources(sh.g) {
				want := seq.BFS(sh.g, src)
				impls := map[string]func() []uint32{
					"core": func() []uint32 { d, _, _ := core.BFS(sh.g, src, core.Options{}); return d },
					"core-novgc": func() []uint32 {
						d, _, _ := core.BFS(sh.g, src, core.Options{Tau: 1})
						return d
					},
					"gbbs":  func() []uint32 { d, _, _ := baseline.GBBSBFS(sh.g, src, core.Options{}); return d },
					"gapbs": func() []uint32 { d, _, _ := baseline.GAPBSBFS(sh.g, src, core.Options{}); return d },
				}
				for name, run := range impls {
					got := run()
					if len(got) != len(want) {
						t.Fatalf("%s src=%d: length %d, want %d", name, src, len(got), len(want))
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s src=%d: dist[%d] = %d, oracle %d",
								name, src, v, got[v], want[v])
						}
					}
				}
			}
		})
	}
}

// TestDifferentialSCC cross-checks the three parallel SCC implementations
// against both sequential oracles (Tarjan and Kosaraju) on every directed
// shape: same component count, equivalent partition.
func TestDifferentialSCC(t *testing.T) {
	for _, sh := range diffShapes(0x5CC) {
		if !sh.g.Directed {
			continue
		}
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			wantC, wantN := seq.TarjanSCC(sh.g)
			if kosC, kosN := seq.KosarajuSCC(sh.g); kosN != wantN || !partitionsMatch(kosC, wantC) {
				t.Fatalf("sequential oracles disagree: tarjan %d vs kosaraju %d", wantN, kosN)
			}
			impls := map[string]func() ([]uint32, int){
				"core":      func() ([]uint32, int) { c, n, _, _ := core.SCC(sh.g, core.Options{}); return c, n },
				"gbbs":      func() ([]uint32, int) { c, n, _, _ := baseline.GBBSSCC(sh.g, core.Options{}); return c, n },
				"multistep": func() ([]uint32, int) { c, n, _, _ := baseline.MultistepSCC(sh.g, core.Options{}); return c, n },
			}
			for name, run := range impls {
				gotC, gotN := run()
				if gotN != wantN {
					t.Fatalf("%s: %d components, oracle %d", name, gotN, wantN)
				}
				if !partitionsMatch(gotC, wantC) {
					t.Fatalf("%s: partition differs from oracle", name)
				}
			}
		})
	}
}

// TestDifferentialBCC cross-checks the parallel BCC implementations against
// Hopcroft–Tarjan on every shape (symmetrized where directed).
func TestDifferentialBCC(t *testing.T) {
	for _, sh := range diffShapes(0xBCC) {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			sym := sh.g.Symmetrized()
			want := seq.HopcroftTarjanBCC(sym)
			impls := map[string]func() core.BCCResult{
				"core": func() core.BCCResult { r, _, _ := core.BCC(sym, core.Options{}); return r },
				"gbbs": func() core.BCCResult { r, _, _ := baseline.GBBSBCC(sym, core.Options{}); return r },
				"tv":   func() core.BCCResult { r, _, _, _ := baseline.TarjanVishkinBCC(sym, core.Options{}); return r },
			}
			for name, run := range impls {
				got := run()
				if got.NumBCC != want.NumBCC {
					t.Fatalf("%s: %d BCCs, oracle %d", name, got.NumBCC, want.NumBCC)
				}
				if !partitionsMatch(got.ArcLabel, want.ArcLabel) {
					t.Fatalf("%s: arc partition differs from oracle", name)
				}
				for v := range got.IsArt {
					if got.IsArt[v] != want.IsArtPort[v] {
						t.Fatalf("%s: articulation[%d] = %v, oracle %v",
							name, v, got.IsArt[v], want.IsArtPort[v])
					}
				}
			}
		})
	}
}

// TestDifferentialSSSP cross-checks every SSSP implementation and stepping
// policy against Dijkstra (and Bellman–Ford as a second oracle) on weighted
// versions of every shape, from multiple sources.
func TestDifferentialSSSP(t *testing.T) {
	for _, sh := range diffShapes(0x555) {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			wg := gen.AddUniformWeights(sh.g, 1, 1000, 0xAB)
			for _, src := range diffSources(wg) {
				want := seq.Dijkstra(wg, src)
				if bf := seq.BellmanFord(wg, src); !equalDists(bf, want) {
					t.Fatal("sequential oracles disagree (Dijkstra vs Bellman-Ford)")
				}
				impls := map[string]func() []uint64{
					"rho": func() []uint64 {
						d, _, _ := core.SSSP(wg, src, core.RhoStepping{}, core.Options{})
						return d
					},
					"delta": func() []uint64 {
						d, _, _ := core.SSSP(wg, src, core.DeltaStepping{Delta: 512}, core.Options{})
						return d
					},
					"bf-policy": func() []uint64 {
						d, _, _ := core.SSSP(wg, src, core.BellmanFordPolicy{}, core.Options{})
						return d
					},
					"deltastep": func() []uint64 {
						d, _, _ := baseline.DeltaSteppingSSSP(wg, src, 512, core.Options{})
						return d
					},
					"gbbs-bf": func() []uint64 {
						d, _, _ := baseline.GBBSBellmanFordSSSP(wg, src, core.Options{})
						return d
					},
				}
				for name, run := range impls {
					got := run()
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s src=%d: dist[%d] = %d, oracle %d",
								name, src, v, got[v], want[v])
						}
					}
				}
			}
		})
	}
}

// batchWidths are the lane-boundary batch sizes the MS-BFS engine must
// get right: one lane, a partial group, exactly one group, one lane past
// it, and two lanes past two groups.
var batchWidths = []int{1, 3, 64, 65, 130}

// batchSources picks b sources on g with a deliberate duplicate (the
// engine must give duplicated sources identical independent rows).
func batchSources(g *graph.Graph, b int) []uint32 {
	srcs := make([]uint32, b)
	for i := range srcs {
		srcs[i] = uint32((i * 41) % g.N)
	}
	if b >= 3 {
		srcs[b-1] = srcs[0]
		srcs[b/2] = srcs[0]
	}
	return srcs
}

// TestDifferentialBatchedBFS cross-checks the batched MS-BFS engine
// lane-by-lane against the sequential queue oracle over the full shape
// matrix, at every lane-boundary batch width, in both push-only and
// pull-favoring routings.
func TestDifferentialBatchedBFS(t *testing.T) {
	opts := map[string]core.Options{
		"default":    {},
		"push-only":  {DisableDirectionOpt: true},
		"pull-eager": {DenseFrac: 0.01},
	}
	for _, sh := range diffShapes(0xBA7C) {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			oracle := map[uint32][]uint32{}
			for _, b := range batchWidths {
				srcs := batchSources(sh.g, b)
				for oname, opt := range opts {
					rows, _, err := msbfs.Run(sh.g, srcs, opt)
					if err != nil {
						t.Fatalf("B=%d %s: %v", b, oname, err)
					}
					for i, s := range srcs {
						want, ok := oracle[s]
						if !ok {
							want = seq.BFS(sh.g, s)
							oracle[s] = want
						}
						for v := range want {
							if rows[i][v] != want[v] {
								t.Fatalf("B=%d %s lane %d (src %d): dist[%d] = %d, oracle %d",
									b, oname, i, s, v, rows[i][v], want[v])
							}
						}
					}
				}
			}
		})
	}
}

// TestDifferentialBatchedReachable does the same sweep for the boolean
// reachability variant, which shares the engine but not the sink.
func TestDifferentialBatchedReachable(t *testing.T) {
	for _, sh := range diffShapes(0x2EAC) {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, b := range batchWidths {
				srcs := batchSources(sh.g, b)
				rows, _, err := msbfs.RunReachable(sh.g, srcs, core.Options{})
				if err != nil {
					t.Fatalf("B=%d: %v", b, err)
				}
				for i, s := range srcs {
					want := seq.BFS(sh.g, s)
					for v := range want {
						if rows[i][v] != (want[v] != graph.InfDist) {
							t.Fatalf("B=%d lane %d (src %d): reach[%d] = %v, oracle %v",
								b, i, s, v, rows[i][v], want[v] != graph.InfDist)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialBatchedRejectsBadSources pins the validation contract on
// every shape: one out-of-range source anywhere in the batch fails the
// whole call with a descriptive error and no rows.
func TestDifferentialBatchedRejectsBadSources(t *testing.T) {
	for _, sh := range diffShapes(0xBAD) {
		bad := uint32(sh.g.N) // first out-of-range id
		for _, b := range batchWidths {
			srcs := batchSources(sh.g, b)
			srcs[b-1] = bad
			if rows, _, err := msbfs.Run(sh.g, srcs, core.Options{}); err == nil || rows != nil {
				t.Fatalf("%s B=%d: out-of-range source accepted (rows=%v err=%v)",
					sh.name, b, rows != nil, err)
			}
		}
	}
}

func equalDists(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasLoopOrParallelArc reports whether g has a self-loop or two arcs
// with the same ends (adjacency lists are sorted, so copies are adjacent).
func hasLoopOrParallelArc(g *graph.Graph) bool {
	for u := uint32(0); u < uint32(g.N); u++ {
		nbrs := g.Neighbors(u)
		for i, w := range nbrs {
			if w == u || i > 0 && nbrs[i-1] == w {
				return true
			}
		}
	}
	return false
}

// TestDifferentialShapeInventory pins the size of the shape matrix so a
// careless edit cannot silently shrink the suite's coverage.
func TestDifferentialShapeInventory(t *testing.T) {
	shapes := diffShapes(1)
	if len(shapes) < 20 {
		t.Fatalf("differential matrix has %d shapes, want >= 20", len(shapes))
	}
	seen := map[string]bool{}
	directed, degenerate := 0, 0
	for _, sh := range shapes {
		if seen[sh.name] {
			t.Fatalf("duplicate shape name %q", sh.name)
		}
		seen[sh.name] = true
		if sh.g.Directed {
			directed++
		}
		if hasLoopOrParallelArc(sh.g) {
			degenerate++
		}
		if sh.g.N == 0 {
			t.Fatalf("shape %q has no vertices", sh.name)
		}
	}
	if directed < 5 {
		t.Fatalf("only %d directed shapes; SCC coverage too thin", directed)
	}
	if degenerate < 3 {
		t.Fatalf("only %d self-loop/multi-edge shapes", degenerate)
	}
	// Reseeding must actually change the randomized shapes.
	a := diffShapes(1)
	b := diffShapes(2)
	changed := false
	for i := range a {
		if a[i].name == "er-dense" && len(a[i].g.Edges) > 0 {
			ga, gb := a[i].g, b[i].g
			if fmt.Sprint(ga.Edges[:10]) != fmt.Sprint(gb.Edges[:10]) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("seed does not vary the randomized shapes")
	}
}
