package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pasgal/internal/conn"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/msbfs"
)

// deltaShape is one entry of the mutation differential matrix: a base
// graph whose structural regime stresses a different part of the
// overlay/canonicalization machinery.
type deltaShape struct {
	name string
	g    *graph.Graph
}

// deltaShapes mirrors the library's differential-matrix convention:
// every structural regime the algorithms branch on, at sizes small
// enough to batch-schedule quickly.
func deltaShapes(seed uint64) []deltaShape {
	w := func(g *graph.Graph) *graph.Graph { return gen.AddUniformWeights(g, 1, 64, seed) }
	return []deltaShape{
		{"empty", graph.FromEdges(16, nil, false, graph.BuildOptions{})},
		{"single-edge", graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false, graph.BuildOptions{})},
		{"chain", gen.Chain(300, false)},
		{"chain-dir", gen.Chain(300, true)},
		{"cycle", gen.Cycle(128, false)},
		{"cycle-dir", gen.Cycle(128, true)},
		{"star", gen.Star(256)},
		{"binary-tree", gen.CompleteBinaryTree(255)},
		{"random-tree", gen.Tree(200, seed)},
		{"er-sparse", gen.ER(400, 600, false, seed)},
		{"er-sparse-dir", gen.ER(400, 600, true, seed)},
		{"er-dense", gen.ER(80, 1600, false, seed)},
		{"er-dense-dir", gen.ER(80, 1600, true, seed)},
		{"grid", gen.Grid2D(16, 16, false, seed)},
		{"grid-dir", gen.Grid2D(16, 16, true, seed)},
		{"sampled-grid", gen.SampledGrid(20, 20, 0.6, false, seed)},
		{"tri-grid", gen.TriGrid(12, 12)},
		{"perforated", gen.PerforatedGrid(20, 20, 5, 2, seed)},
		{"hypercube", gen.Hypercube(7)},
		{"rmat", gen.RMAT(8, 6, 0.57, 0.19, 0.19, false, seed)},
		{"rmat-dir", gen.RMAT(8, 6, 0.57, 0.19, 0.19, true, seed)},
		{"ba", gen.BarabasiAlbert(250, 3, seed)},
		{"ws", gen.WattsStrogatz(200, 6, 0.1, seed)},
		{"knn-dir", gen.KNN(200, 4, 3, true, seed)},
		{"weblike", gen.WebLike(300, 4, 0.2, 5, seed)},
		{"er-weighted", w(gen.ER(300, 900, false, seed))},
		{"er-weighted-dir", w(gen.ER(300, 900, true, seed))},
		{"chain-weighted-dir", w(gen.Chain(200, true))},
	}
}

func TestDeltaShapeInventory(t *testing.T) {
	if n := len(deltaShapes(1)); n < 26 {
		t.Fatalf("delta differential matrix has %d shapes, want >= 26", n)
	}
}

// truthModel tracks the effective edge multiset alongside the store —
// the from-scratch rebuild oracle.
type truthModel struct {
	n        int
	directed bool
	weighted bool
	edges    map[[2]uint32]uint32 // arc -> weight
}

func newTruthModel(g *graph.Graph) *truthModel {
	m := &truthModel{n: g.N, directed: g.Directed, weighted: g.Weighted(), edges: map[[2]uint32]uint32{}}
	for u := 0; u < g.N; u++ {
		for i, v := range g.Neighbors(uint32(u)) {
			var w uint32
			if m.weighted {
				w = g.NeighborWeights(uint32(u))[i]
			}
			m.edges[[2]uint32{uint32(u), v}] = w
		}
	}
	return m
}

func (m *truthModel) apply(batch []Update) {
	for _, up := range batch {
		if up.U == up.V {
			continue
		}
		arcs := [][2]uint32{{up.U, up.V}}
		if !m.directed {
			arcs = append(arcs, [2]uint32{up.V, up.U})
		}
		for _, a := range arcs {
			if up.Op == Insert {
				w := up.W
				if !m.weighted {
					w = 0
				}
				m.edges[a] = w
			} else {
				delete(m.edges, a)
			}
		}
	}
}

// rebuild produces the FromEdges oracle graph for the current state.
func (m *truthModel) rebuild() *graph.Graph {
	var edges []graph.Edge
	for a, w := range m.edges {
		if m.directed || a[0] < a[1] {
			edges = append(edges, graph.Edge{U: a[0], V: a[1], W: w})
		}
	}
	return graph.FromEdges(m.n, edges, m.directed, graph.BuildOptions{Weighted: m.weighted})
}

// randomBatch mixes inserts of random pairs, deletes of live edges,
// weight changes, and deliberate no-ops.
func (m *truthModel) randomBatch(rng *rand.Rand, size int) []Update {
	if m.n < 2 {
		return nil
	}
	var live [][2]uint32
	for a := range m.edges {
		live = append(live, a)
	}
	// Map iteration order is random but not rng-seeded; sort for
	// schedule reproducibility.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0; j-- {
			a, b := live[j-1], live[j]
			if a[0] < b[0] || (a[0] == b[0] && a[1] <= b[1]) {
				break
			}
			live[j-1], live[j] = b, a
		}
	}
	batch := make([]Update, 0, size)
	for i := 0; i < size; i++ {
		switch r := rng.Intn(10); {
		case r < 4: // random insert (sometimes already present)
			u, v := uint32(rng.Intn(m.n)), uint32(rng.Intn(m.n))
			batch = append(batch, Update{U: u, V: v, W: uint32(1 + rng.Intn(64)), Op: Insert})
		case r < 7 && len(live) > 0: // delete a live edge
			a := live[rng.Intn(len(live))]
			batch = append(batch, Update{U: a[0], V: a[1], Op: Delete})
		case r < 8 && len(live) > 0 && m.weighted: // weight change
			a := live[rng.Intn(len(live))]
			batch = append(batch, Update{U: a[0], V: a[1], W: uint32(1 + rng.Intn(64)), Op: Insert})
		default: // delete an (almost surely) absent edge: a no-op
			u, v := uint32(rng.Intn(m.n)), uint32(rng.Intn(m.n))
			batch = append(batch, Update{U: u, V: v, Op: Delete})
		}
	}
	return batch
}

// checkEquivalent asserts that the snapshot view answers identically to
// the from-scratch rebuild on the structure and a sweep of algorithms.
func checkEquivalent(t *testing.T, name string, view graph.Adjacency, ref *graph.Graph, rng *rand.Rand) {
	t.Helper()
	got := viewCSR(t, view)
	if !reflect.DeepEqual(ref.Offsets, got.Offsets) || !reflect.DeepEqual(ref.Edges, got.Edges) ||
		!reflect.DeepEqual(ref.Weights, got.Weights) {
		t.Fatalf("%s: overlay CSR differs from FromEdges rebuild", name)
	}
	if ref.N == 0 {
		return
	}
	srcs := []uint32{0, uint32(rng.Intn(ref.N)), uint32(rng.Intn(ref.N))}
	for _, src := range srcs {
		wd, _, err := core.BFS(ref, src, core.Options{})
		gd, _, err2 := core.BFS(view, src, core.Options{})
		if err != nil || err2 != nil {
			t.Fatalf("%s: bfs errs %v/%v", name, err, err2)
		}
		if !reflect.DeepEqual(wd, gd) {
			t.Fatalf("%s: BFS(%d) differs on overlay vs rebuild", name, src)
		}
	}
	wr, _, _ := core.Reachable(ref, srcs[:2], core.Options{})
	gr, _, _ := core.Reachable(view, srcs[:2], core.Options{})
	if !reflect.DeepEqual(wr, gr) {
		t.Fatalf("%s: Reachable differs", name)
	}
	wm, _, _ := msbfs.Run(ref, srcs, core.Options{})
	gm, _, _ := msbfs.Run(view, srcs, core.Options{})
	if !reflect.DeepEqual(wm, gm) {
		t.Fatalf("%s: MS-BFS differs", name)
	}
	if ref.Weighted() {
		ws, _, err := core.SSSP(ref, srcs[0], nil, core.Options{})
		gs, _, err2 := core.SSSP(view, srcs[0], nil, core.Options{})
		if err != nil || err2 != nil {
			t.Fatalf("%s: sssp errs %v/%v", name, err, err2)
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("%s: SSSP differs", name)
		}
	}
	if !ref.Directed {
		wl, wc := conn.Components(ref)
		gl, gc := conn.Components(view)
		if wc != gc || !reflect.DeepEqual(wl, gl) {
			t.Fatalf("%s: Components differ", name)
		}
	}
}

// TestDifferentialBatchSchedules is the acceptance-criterion suite:
// random insert/delete batch schedules over the shape matrix, with the
// overlay snapshot checked against a from-scratch FromEdges rebuild
// after every batch, and compaction interleaved on half the schedules.
func TestDifferentialBatchSchedules(t *testing.T) {
	for si, sh := range deltaShapes(0xDE17A) {
		sh := sh
		si := si
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(0xBEEF + si)))
			model := newTruthModel(sh.g)
			s := NewStore(sh.g, Options{CompactFraction: -1})
			defer s.Close()
			batchSize := sh.g.N/4 + 4
			for round := 0; round < 4; round++ {
				batch := model.randomBatch(rng, batchSize)
				model.apply(batch)
				if _, err := s.Apply(batch); err != nil {
					t.Fatal(err)
				}
				if si%2 == 0 && round == 2 {
					if _, err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				sn := s.Snapshot()
				if ov, ok := sn.Adj().(*graph.Overlay); ok {
					if err := ov.Validate(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				checkEquivalent(t, fmt.Sprintf("%s/round%d", sh.name, round), sn.Adj(), model.rebuild(), rng)
				sn.Release()
			}
		})
	}
}

// TestCompactMatchesFromEdges: the base Compact installs is byte-identical
// to FromEdges over the effective arc set it replaces, for every
// orientation and weighting, across random batch schedules.
func TestCompactMatchesFromEdges(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{false, true} {
			name := fmt.Sprintf("directed=%v/weighted=%v", directed, weighted)
			t.Run(name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					g := gen.ER(300*int(seed), 1500, directed, seed)
					if weighted {
						g = gen.AddUniformWeights(g, 1, 64, seed)
					}
					rng := rand.New(rand.NewSource(int64(seed)))
					model := newTruthModel(g)
					s := NewStore(g, Options{CompactFraction: -1})
					for round := 0; round < 6; round++ {
						batch := model.randomBatch(rng, 1+rng.Intn(g.N/2))
						model.apply(batch)
						if _, err := s.Apply(batch); err != nil {
							t.Fatal(err)
						}
						if round%2 == 0 {
							continue // let the patch grow across two batches
						}
						want := model.rebuild()
						if _, err := s.Compact(); err != nil {
							t.Fatal(err)
						}
						sn := s.Snapshot()
						got, ok := sn.Adj().(*graph.Graph)
						if !ok {
							t.Fatalf("seed %d round %d: compacted view is %T, want *graph.Graph", seed, round, sn.Adj())
						}
						if err := got.Validate(); err != nil {
							t.Fatal(err)
						}
						if got.Directed != want.Directed || !reflect.DeepEqual(got.Offsets, want.Offsets) ||
							!reflect.DeepEqual(got.Edges, want.Edges) || !reflect.DeepEqual(got.Weights, want.Weights) {
							t.Fatalf("seed %d round %d: compacted base differs from the FromEdges rebuild", seed, round)
						}
						sn.Release()
					}
					s.Close()
				}
			})
		}
	}
}
