package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randomGraph builds a random directed or undirected graph through
// FromEdges, optionally weighted, optionally with self-loops/duplicates
// kept.
func randomGraph(t *testing.T, n, m int, directed, weighted, degenerate bool, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: uint32(rng.Intn(n)),
			V: uint32(rng.Intn(n)),
			W: uint32(rng.Intn(1000) + 1),
		}
	}
	opt := BuildOptions{Weighted: weighted, KeepSelfLoops: degenerate, KeepDuplicates: degenerate}
	g := FromEdges(n, edges, directed, opt)
	if err := g.Validate(); err != nil {
		t.Fatalf("random graph invalid: %v", err)
	}
	return g
}

func graphsEqual(t *testing.T, name string, a, b *Graph) {
	t.Helper()
	if a.N != b.N || a.Directed != b.Directed || a.Weighted() != b.Weighted() {
		t.Fatalf("%s: shape mismatch (n %d/%d, directed %v/%v, weighted %v/%v)",
			name, a.N, b.N, a.Directed, b.Directed, a.Weighted(), b.Weighted())
	}
	for v := 0; v <= a.N; v++ {
		if a.Offsets[v] != b.Offsets[v] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", name, v, b.Offsets[v], a.Offsets[v])
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("%s: edges[%d] = %d, want %d", name, i, b.Edges[i], a.Edges[i])
		}
		if a.Weighted() && a.Weights[i] != b.Weights[i] {
			t.Fatalf("%s: weights[%d] = %d, want %d", name, i, b.Weights[i], a.Weights[i])
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	cases := []struct {
		name                           string
		n, m                           int
		directed, weighted, degenerate bool
	}{
		{name: "small-dir", n: 50, m: 300, directed: true},
		{name: "small-undir", n: 50, m: 300},
		{name: "weighted-dir", n: 80, m: 500, directed: true, weighted: true},
		{name: "weighted-undir", n: 80, m: 500, weighted: true},
		{name: "degenerate", n: 40, m: 400, directed: true, degenerate: true},
		{name: "weighted-degenerate", n: 40, m: 400, weighted: true, degenerate: true},
		{name: "sparse", n: 5000, m: 800, directed: true},
		{name: "single", n: 1, m: 0},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(t, tc.n, tc.m, tc.directed, tc.weighted, tc.degenerate, int64(100+i))
			c := Compress(g)
			if err := c.Validate(); err != nil {
				t.Fatalf("compressed graph invalid: %v", err)
			}
			if c.NumVertices() != g.N || c.NumArcs() != len(g.Edges) ||
				c.IsDirected() != g.Directed || c.HasWeights() != g.Weighted() {
				t.Fatalf("header mismatch: %v vs %v", c, g)
			}
			graphsEqual(t, tc.name, g, c.Decompress())

			// Per-vertex APIs agree with the plain representation.
			var buf []uint32
			for v := uint32(0); int(v) < g.N; v++ {
				if c.DegreeOf(v) != g.Degree(v) {
					t.Fatalf("DegreeOf(%d) = %d, want %d", v, c.DegreeOf(v), g.Degree(v))
				}
				buf = c.AppendNeighbors(v, buf[:0])
				want := g.Neighbors(v)
				if len(buf) != len(want) {
					t.Fatalf("AppendNeighbors(%d): %d arcs, want %d", v, len(buf), len(want))
				}
				var wbuf []uint32
				if g.Weighted() {
					// AppendNeighbors above skipped the interleaved weights;
					// AppendArcs must return the same list plus the weights.
					var nb []uint32
					nb, wbuf = c.AppendArcs(v, nil, nil)
					if !slices.Equal(nb, buf) {
						t.Fatalf("AppendArcs(%d) neighbors = %v, want %v", v, nb, buf)
					}
				}
				for j, w := range want {
					if buf[j] != w {
						t.Fatalf("AppendNeighbors(%d)[%d] = %d, want %d", v, j, buf[j], w)
					}
					if g.Weighted() && wbuf[j] != g.NeighborWeights(v)[j] {
						t.Fatalf("AppendArcs(%d) weight[%d] = %d, want %d", v, j, wbuf[j], g.NeighborWeights(v)[j])
					}
				}
			}
		})
	}
}

func TestCompressedTranspose(t *testing.T) {
	g := randomGraph(t, 70, 500, true, true, false, 11)
	c := Compress(g)
	tr := c.Transpose()
	graphsEqual(t, "transpose", g.Transpose(), tr.Decompress())
	if c.Transpose() != tr {
		t.Fatal("transpose is not cached")
	}
	if tr.Transpose() != c {
		t.Fatal("transpose of the transpose is not the original")
	}
	und := Compress(randomGraph(t, 30, 100, false, false, false, 12))
	if und.Transpose() != und {
		t.Fatal("undirected transpose is not the graph itself")
	}
}

func TestCompressedValidateRejects(t *testing.T) {
	g := randomGraph(t, 40, 300, true, false, false, 13)
	c := Compress(g)

	corrupt := func(mutate func(voff []uint64, data []byte) (int, int)) (*Compressed, string) {
		voff := append([]uint64{}, c.voff...)
		data := append([]byte{}, c.data...)
		n, m := mutate(voff, data)
		return &Compressed{n: n, m: m, directed: true, voff: voff, data: data}, ""
	}

	cases := []struct {
		name string
		bad  *Compressed
		want string
	}{}
	b1, _ := corrupt(func(voff []uint64, data []byte) (int, int) {
		voff[10], voff[11] = voff[11], voff[10] // decreasing offsets
		return c.n, c.m
	})
	cases = append(cases, struct {
		name string
		bad  *Compressed
		want string
	}{"decreasing-offsets", b1, "vertex"})
	b2, _ := corrupt(func(voff []uint64, data []byte) (int, int) {
		data[voff[5]] = 0xff // unterminated degree varint for vertex 5
		return c.n, c.m
	})
	cases = append(cases, struct {
		name string
		bad  *Compressed
		want string
	}{"corrupt-list", b2, "vertex 5"})
	b3, _ := corrupt(func(voff []uint64, data []byte) (int, int) {
		return c.n, c.m + 3 // header lies about the arc count
	})
	cases = append(cases, struct {
		name string
		bad  *Compressed
		want string
	}{"arc-count-lie", b3, "degrees sum"})

	for _, tc := range cases {
		err := tc.bad.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewCompressedStructuralChecks(t *testing.T) {
	g := randomGraph(t, 20, 80, true, false, false, 14)
	c := Compress(g)
	if _, err := NewCompressed(c.n, c.m, true, false, c.voff, c.data); err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	if _, err := NewCompressed(c.n, c.m, true, false, c.voff[:c.n], c.data); err == nil {
		t.Fatal("short offset array accepted")
	}
	if _, err := NewCompressed(c.n, c.m, true, false, c.voff, c.data[:len(c.data)-1]); err == nil {
		t.Fatal("truncated data accepted")
	}
	if _, err := NewCompressed(-1, 0, true, false, nil, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestRelabelByDegree(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := randomGraph(t, 200, 3000, true, weighted, false, 15)
		rg, perm := RelabelByDegree(g)
		if err := rg.Validate(); err != nil {
			t.Fatalf("weighted=%v: relabeled graph invalid: %v", weighted, err)
		}
		// perm is a bijection.
		seen := make([]bool, g.N)
		for _, p := range perm {
			if seen[p] {
				t.Fatalf("weighted=%v: perm maps two vertices to %d", weighted, p)
			}
			seen[p] = true
		}
		// Degrees are nonincreasing in the new order, and vertices of
		// equal degree keep their id order (pasgal-convert -relabel's
		// output bytes depend on it).
		old := make([]uint32, g.N)
		for u, p := range perm {
			old[p] = uint32(u)
		}
		for v := 1; v < rg.N; v++ {
			if rg.Degree(uint32(v)) > rg.Degree(uint32(v-1)) {
				t.Fatalf("weighted=%v: degree rises at %d (%d > %d)",
					weighted, v, rg.Degree(uint32(v)), rg.Degree(uint32(v-1)))
			}
			if rg.Degree(uint32(v)) == rg.Degree(uint32(v-1)) && old[v] < old[v-1] {
				t.Fatalf("weighted=%v: equal-degree vertices %d and %d out of id order at %d",
					weighted, old[v-1], old[v], v)
			}
		}
		// Every original arc appears exactly once under the permutation:
		// map each original list and compare as sorted multisets.
		for u := uint32(0); int(u) < g.N; u++ {
			want := append([]uint32{}, g.Neighbors(u)...)
			for i := range want {
				want[i] = perm[want[i]]
			}
			got := append([]uint32{}, rg.Neighbors(perm[u])...)
			if len(got) != len(want) {
				t.Fatalf("weighted=%v: vertex %d degree %d, want %d", weighted, u, len(got), len(want))
			}
			sortU32(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("weighted=%v: vertex %d arc %d: %d, want %d", weighted, u, i, got[i], want[i])
				}
			}
		}
		if weighted {
			// Weight multiset per vertex survives.
			for u := uint32(0); int(u) < g.N; u++ {
				want := append([]uint32{}, g.NeighborWeights(u)...)
				got := append([]uint32{}, rg.NeighborWeights(perm[u])...)
				sortU32(want)
				sortU32(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("vertex %d weight multiset differs", u)
					}
				}
			}
		}
	}
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestRelabelEmpty pins the n=0 edge case.
func TestRelabelEmpty(t *testing.T) {
	g := &Graph{N: 0, Offsets: []uint64{0}, Directed: true}
	rg, perm := RelabelByDegree(g)
	if rg.N != 0 || len(perm) != 0 {
		t.Fatalf("empty relabel: n=%d perm=%d", rg.N, len(perm))
	}
	c := Compress(g)
	if err := c.Validate(); err != nil {
		t.Fatalf("empty compressed invalid: %v", err)
	}
	if c.Decompress().N != 0 {
		t.Fatal("empty decompress broke")
	}
}
