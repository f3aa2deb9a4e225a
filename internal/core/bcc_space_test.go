package core

import (
	"runtime"
	"testing"

	"pasgal/internal/gen"
)

// TestBCCAuxSpaceLinearInN pins FAST-BCC's "O(n) auxiliary space, no Θ(m)
// auxiliary graph": what one BCC allocates beyond its own result (a label
// per arc, a flag per vertex) must not grow with the edge factor, and
// stays under 200 B per vertex — the forest's tree edges and arc lists,
// the Euler tour arrays, the range-min tables, the per-vertex records.
func TestBCCAuxSpaceLinearInN(t *testing.T) {
	auxPerVertex := func(edgeFactor int) float64 {
		g := gen.SocialRMAT(16, edgeFactor, false, 1)
		BCC(g, Options{}) // worker team and scheduler state exist before the measured run
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, _ := BCC(g, Options{})
		runtime.ReadMemStats(&after)
		output := 4*len(res.ArcLabel) + len(res.IsArt)
		return float64(int(after.TotalAlloc-before.TotalAlloc)-output) / float64(g.N)
	}
	sparse, dense := auxPerVertex(4), auxPerVertex(16)
	t.Logf("auxiliary bytes per vertex: %.1f at edge factor 4, %.1f at 16", sparse, dense)
	if sparse > 200 || dense > 200 {
		t.Errorf("auxiliary space %.1f / %.1f B per vertex, want <= 200", sparse, dense)
	}
	if d := dense / sparse; d > 1.15 || d < 1/1.15 {
		t.Errorf("auxiliary space moved %.2fx with 4x the edges: it depends on m", d)
	}
}
