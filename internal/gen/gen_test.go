package gen

import (
	"math"
	"slices"
	"testing"

	"pasgal/internal/graph"
)

func validate(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !g.Directed && !g.IsSymmetric() {
		t.Fatalf("%s: undirected graph is not symmetric", name)
	}
}

func TestChain(t *testing.T) {
	g := Chain(100, false)
	validate(t, g, "chain")
	if g.UndirectedM() != 99 {
		t.Fatalf("M = %d", g.UndirectedM())
	}
	if d := graph.EstimateDiameter(g, 2, 1); d != 99 {
		t.Fatalf("diameter = %d, want 99", d)
	}
	dg := Chain(100, true)
	validate(t, dg, "directed chain")
	if dg.M() != 99 {
		t.Fatalf("directed M = %d", dg.M())
	}
}

func TestCycleStarTree(t *testing.T) {
	c := Cycle(50, true)
	validate(t, c, "cycle")
	if c.M() != 50 {
		t.Fatalf("cycle M = %d", c.M())
	}
	s := Star(10)
	validate(t, s, "star")
	if s.Degree(0) != 9 {
		t.Fatalf("star center degree = %d", s.Degree(0))
	}
	b := CompleteBinaryTree(31)
	validate(t, b, "tree")
	if b.UndirectedM() != 30 {
		t.Fatalf("tree M = %d", b.UndirectedM())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(10, 20, false, 1)
	validate(t, g, "grid")
	if g.N != 200 {
		t.Fatalf("N = %d", g.N)
	}
	// 10*19 + 9*20 = 370 undirected edges.
	if g.UndirectedM() != 370 {
		t.Fatalf("M = %d, want 370", g.UndirectedM())
	}
	if d := graph.EstimateDiameter(g, 3, 1); d != 28 {
		t.Fatalf("grid diameter = %d, want 28", d)
	}
	dg := Grid2D(10, 20, true, 1)
	validate(t, dg, "directed grid")
	if dg.M() <= 370 || dg.M() > 740 {
		t.Fatalf("directed grid arcs = %d", dg.M())
	}
}

func TestSampledGrid(t *testing.T) {
	g := SampledGrid(30, 30, 0.7, false, 2)
	validate(t, g, "sampled grid")
	full := 30 * 29 * 2
	if g.UndirectedM() >= full || g.UndirectedM() < full/3 {
		t.Fatalf("sampled M = %d (full %d)", g.UndirectedM(), full)
	}
	// Determinism.
	g2 := SampledGrid(30, 30, 0.7, false, 2)
	if g2.UndirectedM() != g.UndirectedM() {
		t.Fatal("sampled grid not deterministic")
	}
	d := SampledGrid(20, 20, 0.8, true, 3)
	validate(t, d, "sampled grid directed")
}

func TestTriAndPerforatedGrid(t *testing.T) {
	tg := TriGrid(12, 12)
	validate(t, tg, "trigrid")
	// grid edges + diagonals = 12*11*2 + 11*11
	if tg.UndirectedM() != 12*11*2+11*11 {
		t.Fatalf("trigrid M = %d", tg.UndirectedM())
	}
	pg := PerforatedGrid(40, 40, 8, 3, 5)
	validate(t, pg, "perforated")
	if pg.UndirectedM() >= 40*39*2 {
		t.Fatal("perforated grid lost no edges")
	}
}

func TestRMAT(t *testing.T) {
	g := SocialRMAT(12, 8, true, 42)
	validate(t, g, "rmat")
	if g.N != 4096 {
		t.Fatalf("N = %d", g.N)
	}
	if g.M() < 4096*4 { // dedup removes some, but most survive
		t.Fatalf("M = %d, too few edges", g.M())
	}
	// Power-law-ish: max degree far above average.
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Fatalf("degree skew too small: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
	// Small diameter on the symmetrized graph.
	if d := graph.EstimateDiameter(g.Symmetrized(), 2, 1); d > 15 {
		t.Fatalf("rmat diameter = %d, want small", d)
	}
	// Determinism.
	g2 := SocialRMAT(12, 8, true, 42)
	if g2.M() != g.M() {
		t.Fatal("rmat not deterministic")
	}
	if SocialRMAT(12, 8, true, 43).M() == g.M() && false {
		t.Fatal("unreachable")
	}
}

func TestWebLike(t *testing.T) {
	g := WebLike(20000, 8, 0.3, 200, 7)
	validate(t, g, "weblike")
	if !g.Directed {
		t.Fatal("weblike should be directed")
	}
	if g.N != 20000 {
		t.Fatalf("N = %d", g.N)
	}
	// Diameter of the symmetrized graph should be in the hundreds thanks
	// to the tendrils.
	d := graph.EstimateDiameter(g.Symmetrized(), 3, 1)
	if d < 100 {
		t.Fatalf("weblike diameter = %d, want >= 100", d)
	}
}

func TestRGG(t *testing.T) {
	// Average degree 6 is above the 2-D continuum percolation threshold
	// (~4.5), so a giant component with Θ(sqrt n) diameter exists.
	g := RGG(5000, 6.0, 11)
	validate(t, g, "rgg")
	avg := g.AvgDegree()
	if avg < 4 || avg > 8 {
		t.Fatalf("rgg avg degree = %.2f, want ~6", avg)
	}
	// Large diameter: Θ(sqrt(n)/r-ish); just require clearly super-log.
	if d := graph.EstimateDiameter(g, 3, 1); d < 20 {
		t.Fatalf("rgg diameter = %d, want large", d)
	}
}

func TestKNN(t *testing.T) {
	g := KNN(3000, 5, 16, false, 13)
	validate(t, g, "knn")
	if g.N != 3000 {
		t.Fatalf("N = %d", g.N)
	}
	avg := g.AvgDegree()
	if avg < 5 || avg > 12 {
		t.Fatalf("knn avg degree = %.2f, want in [5,12]", avg)
	}
	dg := KNN(1000, 5, 8, true, 13)
	validate(t, dg, "knn directed")
	// Every vertex has out-degree exactly k in the directed k-NN graph.
	for v := uint32(0); v < uint32(dg.N); v++ {
		if dg.Degree(v) != 5 {
			t.Fatalf("vertex %d out-degree %d, want 5", v, dg.Degree(v))
		}
	}
}

func TestER(t *testing.T) {
	g := ER(1000, 5000, true, 99)
	validate(t, g, "er")
	if g.M() < 4000 || g.M() > 5000 {
		t.Fatalf("er M = %d", g.M())
	}
}

func TestAddUniformWeights(t *testing.T) {
	g := Grid2D(10, 10, false, 1)
	w := AddUniformWeights(g, 1, 100, 5)
	if !w.Weighted() {
		t.Fatal("not weighted")
	}
	for u := uint32(0); u < uint32(w.N); u++ {
		for e := w.Offsets[u]; e < w.Offsets[u+1]; e++ {
			wt := w.Weights[e]
			if wt < 1 || wt > 100 {
				t.Fatalf("weight %d out of range", wt)
			}
			// Both arcs of an undirected edge share the weight.
			r := w.ReverseArc(u, e)
			if w.Weights[r] != wt {
				t.Fatal("asymmetric weights on undirected edge")
			}
		}
	}
	// Determinism.
	w2 := AddUniformWeights(g, 1, 100, 5)
	for i := range w.Weights {
		if w.Weights[i] != w2.Weights[i] {
			t.Fatal("weights not deterministic")
		}
	}
}

// TestAddUniformWeightsGolden pins the (seed, endpoints) → weight rule:
// pasgal-serve derives sssp/p2p weights for unweighted graphs from it at
// scan time and clients' oracles rebuild them with AddUniformWeights, so
// a value may never change. The spans cover the serving default (a power
// of two), an odd span, and the full uint32 range.
func TestAddUniformWeightsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		lo, hi uint32
		seed   uint64
		want   []uint32
	}{
		{"grid3x3", Grid2D(3, 3, false, 1), 1, 1 << 8, 1, []uint32{
			0x16, 0x8f, 0x16, 0x91, 0x52, 0x91, 0xa6, 0x8f, 0x5b, 0x15, 0x52, 0x5b,
			0x77, 0xce, 0xa6, 0x77, 0x5d, 0x15, 0x50, 0xce, 0x50, 0xa1, 0x5d, 0xa1}},
		{"cycle7", Cycle(7, true), 3, 12, 99, []uint32{0x9, 0x6, 0x8, 0xb, 0x3, 0x3, 0x4}},
		{"star5", Star(5), 0, math.MaxUint32, 7, []uint32{
			0xdc94b477, 0x52d7baa7, 0x960147f9, 0x18a5f4dc,
			0xdc94b477, 0x52d7baa7, 0x960147f9, 0x18a5f4dc}},
	} {
		got := AddUniformWeights(tc.g, tc.lo, tc.hi, tc.seed).Weights
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: weights %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
