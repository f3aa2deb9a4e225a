package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// TestStressBFSConcurrentQueries runs several BFS queries concurrently on
// one shared graph with the worker team oversized, so frontier lists,
// VGC local searches, and the fork-join runtime from different queries all
// interleave on the same cores. Each query's distances are checked against
// the sequential oracle. Under -race this is the closest approximation of
// the production serving scenario: many traversals in flight at once.
// The option rows push every discovery through the bucket ring (Tau 1)
// or pull every round, so the one-lap emptiness test that ends a run is
// read right after rounds whose inserts raced; on the directed graph
// BFSTree runs beside them.
func TestStressBFSConcurrentQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	old := parallel.SetWorkers(16)
	defer parallel.SetWorkers(old)

	graphs := []*graph.Graph{
		gen.Chain(3000, false),
		gen.ER(2500, 7000, false, 11),
		gen.ER(2000, 4000, true, 12),
	}
	opts := []Options{{}, {Tau: 1}, {DenseFrac: 1e-9}}
	for gi, g := range graphs {
		srcs := []uint32{0, uint32(g.N / 3), uint32(g.N - 1)}
		want := make([][]uint32, len(srcs))
		for i, s := range srcs {
			want[i] = seq.BFS(g, s)
		}
		var wg sync.WaitGroup
		errc := make(chan string, len(opts)*len(srcs)*2)
		for _, opt := range opts {
			for i, s := range srcs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dist, _, _ := BFS(g, s, opt)
					for v := range dist {
						if dist[v] != want[i][v] {
							errc <- "distance mismatch"
							return
						}
					}
				}()
				if !g.Directed {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					dist, parent, _, _ := BFSTree(g, s, opt)
					for v := range dist {
						if dist[v] != want[i][v] {
							errc <- "BFSTree distance mismatch"
							return
						}
						if p := parent[v]; p == graph.None {
							if uint32(v) != s && dist[v] != graph.InfDist {
								errc <- "BFSTree left a reached vertex without a parent"
								return
							}
						} else if dist[p]+1 != dist[v] || g.FindArc(p, uint32(v)) == ^uint64(0) {
							errc <- "BFSTree parent is not a tree arc"
							return
						}
					}
				}()
			}
		}
		wg.Wait()
		close(errc)
		for msg := range errc {
			t.Fatalf("graph %d: %s", gi, msg)
		}
	}
}

// TestStressSCCUnderRace runs SCC with tiny tau (maximum scheduling
// pressure: every discovered vertex goes back through the shared hash bag)
// on random directed graphs, plain and compressed (where every worker
// decodes into its own chunk scratch), and cross-checks the component
// count against the sequential Kosaraju oracle. The last row is a chain of
// triangles, where every round after the first picks several pivots.
func TestStressSCCUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	old := parallel.SetWorkers(16)
	defer parallel.SetWorkers(old)
	rng := rand.New(rand.NewPCG(21, 4))
	var graphs []*graph.Graph
	for trial := 0; trial < 3; trial++ {
		n := 500 + rng.IntN(1500)
		graphs = append(graphs, gen.ER(n, 3*n, true, uint64(trial)+40))
	}
	graphs = append(graphs, triangleChain(1000))
	for gi, g := range graphs {
		_, wantCount := seq.KosarajuSCC(g)
		for name, a := range map[string]graph.Adjacency{"plain": g, "pz": graph.Compress(g)} {
			if _, gotCount, _, _ := SCC(a, Options{Tau: 1}); gotCount != wantCount {
				t.Fatalf("graph %d %s: %d SCCs, oracle has %d", gi, name, gotCount, wantCount)
			}
		}
	}
}

// TestStressSteppingUnderRace runs the stepping driver with tiny tau (every
// improvement round-trips through the near bag, so duplicate extractions
// and concurrent scan stamps on one vertex are the common case) and an
// oversized worker team, SSSP and PointToPoint side by side on one graph,
// against Dijkstra.
func TestStressSteppingUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	old := parallel.SetWorkers(16)
	defer parallel.SetWorkers(old)
	for trial, pol := range []StepPolicy{RhoStepping{Rho: 32}, DeltaStepping{Delta: 4}, BellmanFordPolicy{}} {
		g := gen.AddUniformWeights(gen.ER(1500, 6000, true, uint64(trial)+60), 0, 9, 61)
		want := seq.Dijkstra(g, 0)
		var wg sync.WaitGroup
		errc := make(chan string, 4)
		for q := 0; q < 2; q++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				dist, _, _ := SSSP(g, 0, pol, Options{Tau: 1})
				for v := range dist {
					if dist[v] != want[v] {
						errc <- "SSSP distance mismatch"
						return
					}
				}
			}()
			go func(dst uint32) {
				defer wg.Done()
				if d, _, _ := PointToPoint(g, 0, dst, pol, Options{Tau: 1}); d != want[dst] {
					errc <- "PointToPoint distance mismatch"
				}
			}(uint32(g.N - 1 - q))
		}
		wg.Wait()
		close(errc)
		for msg := range errc {
			t.Fatalf("%s: %s", pol.Name(), msg)
		}
	}
}
