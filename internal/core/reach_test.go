package core

import (
	"sync/atomic"
	"testing"

	"pasgal/internal/conn"
	"pasgal/internal/euler"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

func TestReachableMatchesBFS(t *testing.T) {
	for name, g := range testGraphs(true) {
		want := seq.BFS(g, 0)
		got, met, _ := Reachable(g, []uint32{0}, Options{})
		for v := range want {
			if got[v] != (want[v] != graph.InfDist) {
				t.Fatalf("%s: reach[%d] = %v, BFS dist %d", name, v, got[v], want[v])
			}
		}
		if g.Degree(0) > 0 && met.Rounds == 0 {
			t.Fatalf("%s: no rounds", name)
		}
	}
}

func TestReachableMultiSource(t *testing.T) {
	g := gen.Chain(100, true)
	got, _, _ := Reachable(g, []uint32{50, 80}, Options{})
	for v := 0; v < 100; v++ {
		if got[v] != (v >= 50) {
			t.Fatalf("reach[%d] = %v", v, got[v])
		}
	}
	// Duplicate sources are fine.
	got, _, _ = Reachable(g, []uint32{0, 0, 0}, Options{})
	for v := 0; v < 100; v++ {
		if !got[v] {
			t.Fatalf("dup-source reach[%d] false", v)
		}
	}
	// No sources / empty graph.
	if r, _, _ := Reachable(g, nil, Options{}); r[0] {
		t.Fatal("no-source reach should be empty")
	}
	eg := graph.FromEdges(0, nil, true, graph.BuildOptions{})
	if r, _, _ := Reachable(eg, nil, Options{}); len(r) != 0 {
		t.Fatal("empty graph reach")
	}
}

func TestReachableVGCReducesRounds(t *testing.T) {
	g := gen.Chain(20000, true)
	_, metVGC, _ := Reachable(g, []uint32{0}, Options{Tau: 512})
	_, metNo, _ := Reachable(g, []uint32{0}, Options{Tau: 1})
	if metVGC.Rounds*10 >= metNo.Rounds {
		t.Fatalf("VGC rounds %d vs %d", metVGC.Rounds, metNo.Rounds)
	}
}

// TestPropagateFilterAndWriteMin drives the label search the way SCC does:
// three labels seeded into a directed ring whose sub array splits it in
// two halves, with one settled vertex. A label must stop at the split and
// at the settled vertex, and where two labels reach the same vertex the
// smaller one must be the one left standing. Labels are stored
// complemented: label 0, the smallest, stores ^0 and must spread, and the
// zeroed words of a fresh array must read as unreached and stay 0.
func TestPropagateFilterAndWriteMin(t *testing.T) {
	const n, half, settled = 200, 100, 150
	ring := gen.Cycle(n, true)
	for name, a := range map[string]graph.Adjacency{"plain": ring, "pz": graph.Compress(ring)} {
		for _, tau := range []int{1, 512} {
			comp := make([]uint32, n)
			sub := make([]uint64, n)
			label := make([]atomic.Uint32, n)
			for v := range label {
				comp[v] = graph.None
				sub[v] = uint64(v / half)
			}
			comp[settled] = settled
			var seeds []uint32
			// Label 1 starts behind label 0 and overtakes nothing; label 2
			// owns the other half up to the settled vertex.
			for l, s := range map[uint32]uint32{0: 30, 1: 10, 2: 120} {
				label[s].Store(^l)
				seeds = append(seeds, s)
			}
			met := NewMetrics(Options{}, "test")
			vgc := &localSearch{slots: 1, met: met}
			if err := propagate(vgc, graph.ScanOut(a), label, seeds, comp, sub, tau); err != nil {
				t.Fatal(err)
			}
			if !vgc.empty(0) || met.Rounds == 0 {
				t.Fatalf("%s tau=%d: lists empty = %v after %d rounds", name, tau, vgc.empty(0), met.Rounds)
			}
			for v := 0; v < n; v++ {
				want := uint32(0) // unreached
				switch {
				case v >= 10 && v < 30:
					want = ^uint32(1)
				case v >= 30 && v < half:
					want = ^uint32(0) // both 0 and 1 reach here
				case v >= 120 && v < settled:
					want = ^uint32(2)
				}
				if got := label[v].Load(); got != want {
					t.Fatalf("%s tau=%d: stored label[%d] = %#x, want %#x", name, tau, v, got, want)
				}
			}
		}
	}
}

// BCCFromForest with an externally built forest must agree with BCC and
// with Hopcroft–Tarjan, whatever spanning forest it is given.
func TestBCCFromForestDirect(t *testing.T) {
	g := gen.TriGrid(15, 15)
	want := seq.HopcroftTarjanBCC(g)

	direct, _, _ := BCC(g, Options{})
	if direct.NumBCC != want.NumBCC {
		t.Fatalf("NumBCC %d want %d", direct.NumBCC, want.NumBCC)
	}

	tree, comp, _ := conn.SpanningForest(g)
	f := euler.Build(g.N, tree, comp)
	viaForest, met, _ := BCCFromForest(g, f, Options{})
	if viaForest.NumBCC != want.NumBCC {
		t.Fatalf("BCCFromForest NumBCC %d want %d", viaForest.NumBCC, want.NumBCC)
	}
	for v := range viaForest.IsArt {
		if viaForest.IsArt[v] != want.IsArtPort[v] {
			t.Fatalf("articulation mismatch at %d", v)
		}
	}
	if met.EdgesVisited == 0 {
		t.Fatal("metrics empty")
	}
	// Empty graph path.
	empty := graph.FromEdges(0, nil, false, graph.BuildOptions{})
	res, _, _ := BCCFromForest(empty, euler.Build(0, nil, nil), Options{})
	if res.NumBCC != 0 {
		t.Fatal("empty BCCFromForest")
	}
}
