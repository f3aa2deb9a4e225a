package core

import (
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// Functional twins for the kernels on compressed graphs in this
// package: the bench package's differential suite sweeps the full shape
// matrix, but these in-package tests pin the representative branches —
// bulk-decode scans, the VGC budget-exhaustion spill, and goal-directed
// pruning — directly against the plain path.

// TestCompressedReachableMatchesPlain runs the multi-source local search
// on both representations, in the default and the budget-starved (Tau=1,
// every discovered vertex spills to the shared bag) configurations.
func TestCompressedReachableMatchesPlain(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"er-sparse": gen.ER(800, 1200, true, 21), // disconnected
		"rmat":      gen.SocialRMAT(9, 8, true, 22),
		"grid":      gen.Grid2D(20, 20, false, 23),
	} {
		c := graph.Compress(g)
		srcs := []uint32{0, uint32(g.N / 2)}
		for oname, opt := range map[string]Options{"default": {}, "novgc": {Tau: 1}} {
			want, _, err := Reachable(g, srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Reachable(c, srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%s: reach[%d] = %v compressed, %v plain",
						name, oname, v, got[v], want[v])
				}
			}
		}
	}
}

// TestCompressedPointToPointMatchesPlain covers the weighted bulk-decode
// scan under goal-directed pruning: reachable pairs, an unreachable pair,
// the src == dst shortcut, and the budget-starved configuration.
func TestCompressedPointToPointMatchesPlain(t *testing.T) {
	g := gen.AddUniformWeights(gen.ER(700, 2800, true, 31), 1, 50, 32)
	c := graph.Compress(g)
	pairs := [][2]uint32{
		{0, uint32(g.N - 1)},
		{uint32(g.N / 2), 1},
		{5, 5}, // shortcut
	}
	for oname, opt := range map[string]Options{"default": {}, "novgc": {Tau: 1}} {
		for _, p := range pairs {
			want, _, err := PointToPoint(g, p[0], p[1], nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := PointToPoint(c, p[0], p[1], nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %d->%d: dist %d compressed, %d plain", oname, p[0], p[1], got, want)
			}
		}
	}
	// An unreachable destination: two-component graph.
	iso := gen.AddUniformWeights(gen.ER(200, 100, true, 33), 1, 9, 34)
	ic := graph.Compress(iso)
	for dst := uint32(1); dst < uint32(iso.N); dst++ {
		want, _, err := PointToPoint(iso, 0, dst, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := PointToPoint(ic, 0, dst, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("0->%d: dist %d compressed, %d plain", dst, got, want)
		}
		if want == InfWeight {
			return // found and verified an unreachable pair; done
		}
	}
	t.Fatal("no unreachable pair in the sparse graph; strengthen the generator seed")
}

// TestCompressedUnweightedPTPPanics pins the weighted-graph precondition
// on the compressed representation.
func TestCompressedUnweightedPTPPanics(t *testing.T) {
	c := graph.Compress(gen.Chain(10, true))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an unweighted compressed graph")
		}
	}()
	PointToPoint(c, 0, 5, nil, Options{})
}
