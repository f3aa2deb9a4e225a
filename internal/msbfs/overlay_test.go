package msbfs

import (
	"math/rand"
	"testing"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// Functional twins for the lane scans on overlay graphs (epoch
// snapshots from internal/delta): batched runs over the overlay must
// match batched runs over a plain rebuild of the same post-edit graph,
// in both scan directions and across lane-group widths.

// overlayTwin applies a deterministic random edit batch and returns the
// overlay plus a plain CSR of the identical post-edit graph.
func overlayTwin(t *testing.T, g *graph.Graph, seed int64) (*graph.Overlay, *graph.Graph) {
	t.Helper()
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
	for i := 0; i < g.N/3; i++ {
		u, v := rng.Uint32()%n, rng.Uint32()%n
		if u == v {
			continue
		}
		adds = append(adds, graph.Edge{U: u, V: v})
	}
	o := graph.OverlayFromEdits(g, dels, adds)
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invariants: %v", err)
	}
	return o, o.Materialize()
}

// TestOverlayRunMatchesPlain sweeps batch widths across the 64-lane group
// boundary on directed and undirected overlays. The "pull" row forces a
// bottom-up cut of one so the lazy overlay transpose merge runs; the
// default row keeps the push route for the sparse phases.
func TestOverlayRunMatchesPlain(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat-directed": gen.SocialRMAT(9, 8, true, 81),
		"grid":          gen.Grid2D(20, 20, false, 82),
	} {
		o, mat := overlayTwin(t, g, 83)
		rng := rand.New(rand.NewSource(84))
		for _, b := range []int{1, 3, 64, 100} {
			srcs := make([]uint32, b)
			for i := range srcs {
				srcs[i] = rng.Uint32() % uint32(g.N)
			}
			for oname, opt := range map[string]core.Options{
				"default": {},
				"pull":    {DenseFrac: 0.0001},
			} {
				want, _, err := Run(mat, srcs, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := Run(o, srcs, opt)
				if err != nil {
					t.Fatal(err)
				}
				for s := range want {
					for v := range want[s] {
						if got[s][v] != want[s][v] {
							t.Fatalf("%s/%s B=%d: dist[src %d][%d] = %d overlay, %d plain",
								name, oname, b, s, v, got[s][v], want[s][v])
						}
					}
				}
			}
		}
	}
}

// TestOverlayBatchedQueriesMatchPlain drives the derived batched entry
// points (reachability lanes, point-to-point early exit) through the
// overlay scan branch.
func TestOverlayBatchedQueriesMatchPlain(t *testing.T) {
	o, mat := overlayTwin(t, gen.ER(700, 1100, true, 91), 92) // disconnected
	n := uint32(mat.N)
	srcs := []uint32{0, n / 4, n / 2, n - 1}
	wantR, _, err := RunReachable(mat, srcs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotR, _, err := RunReachable(o, srcs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range wantR {
		for v := range wantR[s] {
			if gotR[s][v] != wantR[s][v] {
				t.Fatalf("reach[src %d][%d] = %v overlay, %v plain", s, v, gotR[s][v], wantR[s][v])
			}
		}
	}
	pairs := [][2]uint32{{0, n - 1}, {n / 2, 1}, {7, 7}}
	wantP, _, err := RunPointToPoint(mat, pairs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotP, _, err := RunPointToPoint(o, pairs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("p2p %v: %d overlay, %d plain", pairs[i], gotP[i], wantP[i])
		}
	}
}
