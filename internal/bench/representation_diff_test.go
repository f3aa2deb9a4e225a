package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"pasgal/internal/conn"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/msbfs"
	"pasgal/internal/seq"
)

// The representation differential suite: every kernel that scans through
// graph.Scanner runs on every non-plain representation of every
// differential shape, against the sequential oracle on a plain CSR graph
// with the identical arc set. The plain-CSR side of the seam is pinned by
// the per-algorithm suites in differential_test.go; what can go wrong
// here is a decode, a patch merge, a lazy transpose, or a kernel body that
// mishandles a scratch-backed list.

// reprCase is one representation of a shape next to its ground truth.
type reprCase struct {
	name  string
	a     graph.Adjacency
	truth *graph.Graph // plain CSR with a's exact arc set
}

// reprCases returns g as a Compressed, as a Compressed of its
// degree-relabeled layout (the one pasgal-convert -relabel writes: other
// gap sizes, other first deltas), as a zero-patch Overlay, and as an
// Overlay carrying a random patch — tombstones on about a sixth of the
// base arcs plus fresh arcs, some of which land on live arcs and become
// weight overrides — whose truth is its own Materialize().
func reprCases(t *testing.T, g *graph.Graph, seed int64) []reprCase {
	t.Helper()
	rg, _ := graph.RelabelByDegree(g)
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
	for i := 0; i < g.N/3+1; i++ {
		adds = append(adds, graph.Edge{U: rng.Uint32() % n, V: rng.Uint32() % n, W: 1 + rng.Uint32()%1000})
	}
	o := graph.OverlayFromEdits(g, dels, adds)
	if err := o.Validate(); err != nil {
		t.Fatalf("patched overlay invariants: %v", err)
	}
	return []reprCase{
		{"pz", graph.Compress(g), g},
		{"pz-relabeled", graph.Compress(rg), rg},
		{"overlay-empty", graph.EmptyOverlay(g), g},
		{"overlay-patched", o, o.Materialize()},
	}
}

// shapeDirs selects the shapes a group runs on: connectivity is undefined
// on directed shapes, strong connectivity on undirected ones.
type shapeDirs int

const (
	anyDir shapeDirs = iota
	undirectedOnly
	directedOnly
)

// forEachRepr runs f as a subtest per shape × representation. weighted
// puts uniform weights on the shape first; dirs leaves shapes out (they
// are not rows of the group, so nothing is reported as skipped).
func forEachRepr(t *testing.T, seed uint64, weighted bool, dirs shapeDirs, f func(t *testing.T, rc reprCase)) {
	for _, sh := range diffShapes(seed) {
		g := sh.g
		if dirs == undirectedOnly && g.Directed || dirs == directedOnly && !g.Directed {
			continue
		}
		if weighted {
			g = gen.AddUniformWeights(g, 1, 1000, 0xAB)
		}
		for _, rc := range reprCases(t, g, int64(seed)) {
			rc := rc
			t.Run(sh.name+"/"+rc.name, func(t *testing.T) { f(t, rc) })
		}
	}
}

// scanRoutes are the traversal option rows: the default heuristic, push
// only (ScanIn is never built), and a dense cut of one vertex so every
// round pulls through ScanIn — including on the self-loop, multi-edge and
// single-vertex shapes the default heuristic never pulls on.
var scanRoutes = map[string]core.Options{
	"default":   {},
	"push-only": {DisableDirectionOpt: true},
	"pull-all":  {DenseFrac: 1e-9},
}

func TestRepresentationDifferential(t *testing.T) {
	t.Run("bfs", func(t *testing.T) {
		forEachRepr(t, 0xC1FF, false, anyDir, func(t *testing.T, rc reprCase) {
			for _, src := range diffSources(rc.truth) {
				want := seq.BFS(rc.truth, src)
				for oname, opt := range scanRoutes {
					got, _, err := core.BFS(rc.a, src, opt)
					if err != nil {
						t.Fatalf("%s src=%d: %v", oname, src, err)
					}
					requireSame(t, got, want, "%s src=%d dist", oname, src)
					// The tree variant is BFS plus a parent pass through
					// ScanIn, so it runs every route too.
					dist, parent, _, err := core.BFSTree(rc.a, src, opt)
					if err != nil {
						t.Fatalf("tree %s src=%d: %v", oname, src, err)
					}
					requireSame(t, dist, want, "tree %s src=%d dist", oname, src)
					for v, p := range parent {
						if p == graph.None {
							if uint32(v) != src && want[v] != graph.InfDist {
								t.Fatalf("tree %s src=%d: reached vertex %d has no parent", oname, src, v)
							}
						} else if want[p]+1 != want[v] || rc.truth.FindArc(p, uint32(v)) == ^uint64(0) {
							t.Fatalf("tree %s src=%d: parent[%d] = %d is not a BFS-tree arc", oname, src, v, p)
						}
					}
				}
			}
		})
	})

	t.Run("reachable", func(t *testing.T) {
		forEachRepr(t, 0xC2EA, false, anyDir, func(t *testing.T, rc reprCase) {
			srcs := diffSources(rc.truth)
			srcs = append(srcs, srcs[0]) // duplicate
			got, _, err := core.Reachable(rc.a, srcs, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]bool, rc.truth.N)
			for _, s := range srcs {
				for v, d := range seq.BFS(rc.truth, s) {
					want[v] = want[v] || d != graph.InfDist
				}
			}
			requireSame(t, got, want, "reach")
		})
	})

	// Both search directions of SCC and its trimming scan through the
	// representation (the backward ones through its lazy transpose);
	// Tau = 1 sends every labeled vertex back through the shared bag.
	t.Run("scc", func(t *testing.T) {
		forEachRepr(t, 0xC5CC, false, directedOnly, func(t *testing.T, rc reprCase) {
			wantL, wantN := seq.TarjanSCC(rc.truth)
			for _, opt := range []core.Options{{}, {Tau: 1}} {
				gotL, gotN, _, err := core.SCC(rc.a, opt)
				if err != nil {
					t.Fatalf("tau=%d: %v", opt.Tau, err)
				}
				if gotN != wantN {
					t.Fatalf("tau=%d: %d components, oracle %d", opt.Tau, gotN, wantN)
				}
				if !partitionsMatch(gotL, wantL) {
					t.Fatalf("tau=%d: component partition differs from the oracle's", opt.Tau)
				}
			}
		})
	})

	// k-core peels a directed shape as its symmetric closure, merging each
	// vertex's ScanOut list with its ScanIn list (the lazy transpose);
	// Tau = 1 sends every peeled vertex back through the shared bag.
	t.Run("kcore", func(t *testing.T) {
		forEachRepr(t, 0xC6C0, false, anyDir, func(t *testing.T, rc reprCase) {
			want, wantDeg := seq.KCore(rc.truth.Symmetrized())
			for _, opt := range []core.Options{{}, {Tau: 1}} {
				got, deg, _, err := core.KCore(rc.a, opt)
				if err != nil {
					t.Fatalf("tau=%d: %v", opt.Tau, err)
				}
				if deg != wantDeg {
					t.Fatalf("tau=%d: degeneracy %d, oracle %d", opt.Tau, deg, wantDeg)
				}
				requireSame(t, got, want, "tau=%d coreness", opt.Tau)
			}
		})
	})

	// Densest subgraph counts each level's edges over the same lists.
	t.Run("densest", func(t *testing.T) {
		forEachRepr(t, 0xCDE5, false, anyDir, func(t *testing.T, rc reprCase) {
			wantV, wantD, _, err := core.DensestSubgraph(rc.truth, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotV, gotD, _, err := core.DensestSubgraph(rc.a, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if gotD != wantD {
				t.Fatalf("density %v, plain %v", gotD, wantD)
			}
			requireSame(t, gotV, wantV, "vertex set")
		})
	})

	// Weighted rows: the only place interleaved-weight decoding and the
	// overlay's weighted merge (AppendArcs, weight overrides included) run
	// under a frontier algorithm.
	t.Run("sssp", func(t *testing.T) {
		forEachRepr(t, 0xC555, true, anyDir, func(t *testing.T, rc reprCase) {
			if !rc.a.HasWeights() {
				t.Fatal("representation lost its weights")
			}
			for _, src := range diffSources(rc.truth) {
				want := seq.Dijkstra(rc.truth, src)
				for pname, policy := range map[string]core.StepPolicy{
					"rho":   core.RhoStepping{},
					"delta": core.DeltaStepping{Delta: 512},
				} {
					got, _, err := core.SSSP(rc.a, src, policy, core.Options{})
					if err != nil {
						t.Fatalf("%s src=%d: %v", pname, src, err)
					}
					requireSame(t, got, want, "%s src=%d dist", pname, src)
				}
				dst := uint32(rc.truth.N-1) - src%uint32(rc.truth.N)
				d, _, err := core.PointToPoint(rc.a, src, dst, nil, core.Options{})
				if err != nil {
					t.Fatalf("p2p %d->%d: %v", src, dst, err)
				}
				if d != want[dst] {
					t.Fatalf("p2p %d->%d: dist %d, oracle %d", src, dst, d, want[dst])
				}
				// The tree variant derives parents through ScanIn.
				dist, parent, _, err := core.SSSPTree(rc.a, src, nil, core.Options{})
				if err != nil {
					t.Fatalf("tree src=%d: %v", src, err)
				}
				requireSame(t, dist, want, "tree src=%d dist", src)
				for v, p := range parent {
					if p == graph.None {
						if uint32(v) != src && want[v] != core.InfWeight {
							t.Fatalf("tree src=%d: reached vertex %d has no parent", src, v)
						}
					} else if !tightArc(rc.truth, p, uint32(v), want) {
						t.Fatalf("tree src=%d: parent[%d] = %d is not a tight arc", src, v, p)
					}
				}
			}
		})
	})

	t.Run("connectivity", func(t *testing.T) {
		forEachRepr(t, 0xC0CC, false, undirectedOnly, func(t *testing.T, rc reprCase) {
			wantL, wantN := conn.Components(rc.truth)
			gotL, gotN := conn.Components(rc.a)
			if gotN != wantN {
				t.Fatalf("components: %d, plain %d", gotN, wantN)
			}
			if !partitionsMatch(gotL, wantL) {
				t.Fatal("component partition differs between representations")
			}
			wantF, _, _ := conn.SpanningForest(rc.truth)
			gotF, fl, fn := conn.SpanningForest(rc.a)
			if len(gotF) != len(wantF) || fn != wantN {
				t.Fatalf("forest: %d edges / %d comps, plain %d / %d", len(gotF), fn, len(wantF), wantN)
			}
			uf := conn.NewUnionFind(rc.truth.N)
			for _, e := range gotF {
				if rc.truth.FindArc(e.U, e.V) == ^uint64(0) {
					t.Fatalf("forest edge (%d,%d) is not an edge of the graph", e.U, e.V)
				}
				if !uf.Union(e.U, e.V) {
					t.Fatalf("forest edge (%d,%d) closes a cycle", e.U, e.V)
				}
			}
			if !partitionsMatch(fl, wantL) {
				t.Fatal("forest labels differ from component labels")
			}
		})
	})

	// MS-BFS at every lane-boundary batch width in every routing,
	// lane-by-lane against the oracle.
	t.Run("batched-bfs", func(t *testing.T) {
		forEachRepr(t, 0xCBA7, false, anyDir, func(t *testing.T, rc reprCase) {
			oracle := map[uint32][]uint32{}
			for _, b := range batchWidths {
				srcs := batchSources(rc.truth, b)
				for oname, opt := range scanRoutes {
					rows, _, err := msbfs.Run(rc.a, srcs, opt)
					if err != nil {
						t.Fatalf("B=%d %s: %v", b, oname, err)
					}
					for i, s := range srcs {
						want, ok := oracle[s]
						if !ok {
							want = seq.BFS(rc.truth, s)
							oracle[s] = want
						}
						requireSame(t, rows[i], want, "B=%d %s lane %d (src %d) dist", b, oname, i, s)
					}
				}
			}
			// The boolean variant shares the engine; one width suffices.
			srcs := batchSources(rc.truth, 65)
			rows, _, err := msbfs.RunReachable(rc.a, srcs, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range srcs {
				want := oracle[s]
				for v := range want {
					if rows[i][v] != (want[v] != graph.InfDist) {
						t.Fatalf("reachable lane %d (src %d): reach[%d] = %v, oracle %v",
							i, s, v, rows[i][v], want[v] != graph.InfDist)
					}
				}
			}
		})
	})
}

// TestCompressedLossless pins the foundation the pz rows rest on:
// compress → decompress is the identity over every shape, in both
// layouts, and every compressed graph passes full validation.
func TestCompressedLossless(t *testing.T) {
	for _, sh := range diffShapes(0xC0DE) {
		rg, _ := graph.RelabelByDegree(sh.g)
		for name, g := range map[string]*graph.Graph{"plain": sh.g, "relabeled": rg} {
			c := graph.Compress(g)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", sh.name, name, err)
			}
			d := c.Decompress()
			if d.N != g.N || d.M() != g.M() || d.Directed != g.Directed {
				t.Fatalf("%s/%s: decompressed header differs", sh.name, name)
			}
			requireSame(t, d.Edges, g.Edges, "%s/%s round-trip edges", sh.name, name)
		}
	}
}

// requireSame fails the test at the first index where got and want
// differ; what names the result being compared.
func requireSame[T comparable](t *testing.T, got, want []T, what string, args ...any) {
	t.Helper()
	what = fmt.Sprintf(what, args...)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// tightArc reports whether (u,v) is an arc of g with dist[u]+w = dist[v].
func tightArc(g *graph.Graph, u, v uint32, dist []uint64) bool {
	wts := g.NeighborWeights(u)
	for i, x := range g.Neighbors(u) {
		if x == v && dist[u]+uint64(wts[i]) == dist[v] {
			return true
		}
	}
	return false
}
