package euler_test

import (
	"sync"
	"testing"

	"pasgal/internal/conn"
	"pasgal/internal/core"
	"pasgal/internal/euler"
	"pasgal/internal/gen"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// TestStressBuildUnderRace runs eight Build + BCC pipelines at once on one
// shared graph with the worker team oversized, so the segment walks, the
// reduced-list jumps and BCC's per-vertex records from different runs
// interleave on the same cores. Each forest must root the same partition,
// each BCC must agree with Hopcroft–Tarjan.
func TestStressBuildUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	old := parallel.SetWorkers(16)
	defer parallel.SetWorkers(old)

	g := gen.SampledGrid(60, 60, 0.9, false, 3)
	want := seq.HopcroftTarjanBCC(g)
	_, _, comps := conn.SpanningForest(g)
	var wg sync.WaitGroup
	for run := 0; run < 8; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree, comp, _ := conn.SpanningForest(g)
			f := euler.Build(g.N, tree, comp)
			if len(f.Roots) != comps {
				t.Errorf("forest has %d roots, graph %d components", len(f.Roots), comps)
			}
			for _, e := range tree {
				if f.Parent[e.U] != e.V && f.Parent[e.V] != e.U {
					t.Errorf("tree edge (%d,%d) is no parent link", e.U, e.V)
					return
				}
			}
			res, _, err := core.BCC(g, core.Options{})
			if err != nil || res.NumBCC != want.NumBCC {
				t.Errorf("BCC: %d components (err %v), oracle %d", res.NumBCC, err, want.NumBCC)
			}
		}()
	}
	wg.Wait()
}
