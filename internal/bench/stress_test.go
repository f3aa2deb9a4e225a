package bench

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"strconv"
	"testing"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// TestStressDifferential is a randomized soak test: it keeps generating
// graphs with random shapes and options and cross-checks every parallel
// implementation against the sequential references. Off by default; enable
// with PASGAL_STRESS=<iterations>, e.g.
//
//	PASGAL_STRESS=500 go test ./internal/bench -run Stress -v
func TestStressDifferential(t *testing.T) {
	itersStr := os.Getenv("PASGAL_STRESS")
	if itersStr == "" {
		t.Skip("set PASGAL_STRESS=<iters> to run the soak test")
	}
	iters, err := strconv.Atoi(itersStr)
	if err != nil || iters < 1 {
		t.Fatalf("bad PASGAL_STRESS value %q", itersStr)
	}
	rng := rand.New(rand.NewPCG(0xdead, 0xbeef))
	for it := 0; it < iters; it++ {
		seed := rng.Uint64()
		n := 2 + rng.IntN(800)
		var g *graph.Graph
		switch rng.IntN(5) {
		case 0:
			g = gen.ER(n, rng.IntN(5*n+1), true, seed)
		case 1:
			g = gen.SocialRMAT(max(9, bits.Len(uint(n-1))), 1+rng.IntN(12), true, seed)
		case 2:
			g = gen.WebLike(max(n, 200), 1+rng.IntN(8), 0.3, 1+rng.IntN(40), seed)
		case 3:
			k := 1 + int(math.Sqrt(float64(n)))
			g = gen.SampledGrid(k, k, 0.5+rng.Float64()/2, true, seed)
		default:
			g = gen.KNN(max(n, 20), 1+rng.IntN(6), 1+rng.IntN(8), true, seed)
		}
		opt := core.Options{Tau: 1 + rng.IntN(1024), TrimRounds: rng.IntN(4) - 1}
		src := uint32(rng.IntN(g.N))

		// BFS family.
		want := seq.BFS(g, src)
		for name, got := range map[string][]uint32{
			"core":  first3(core.BFS(g, src, opt)),
			"gbbs":  first3(baseline.GBBSBFS(g, src, core.Options{})),
			"gapbs": first3(baseline.GAPBSBFS(g, src, core.Options{})),
		} {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("iter %d seed %x: BFS %s dist[%d]=%d want %d",
						it, seed, name, v, got[v], want[v])
				}
			}
		}
		// SCC family (count check; partition checked in non-stress tests).
		_, wantN := seq.TarjanSCC(g)
		if _, gotN, _, _ := core.SCC(g, opt); gotN != wantN {
			t.Fatalf("iter %d seed %x: SCC count %d want %d", it, seed, gotN, wantN)
		}
		// BCC on the symmetrized graph.
		sym := g.Symmetrized()
		wantB := seq.HopcroftTarjanBCC(sym)
		if res, _, _ := core.BCC(sym, opt); res.NumBCC != wantB.NumBCC {
			t.Fatalf("iter %d seed %x: BCC %d want %d", it, seed, res.NumBCC, wantB.NumBCC)
		}
		// SSSP.
		wg := gen.AddUniformWeights(g, 1, 1+uint32(rng.IntN(1<<16)), seed^1)
		wantD := seq.Dijkstra(wg, src)
		gotD, _, _ := core.SSSP(wg, src, core.RhoStepping{Rho: 1 + rng.IntN(4096)}, opt)
		for v := range wantD {
			if gotD[v] != wantD[v] {
				t.Fatalf("iter %d seed %x: SSSP dist[%d]=%d want %d",
					it, seed, v, gotD[v], wantD[v])
			}
		}
		if it%50 == 49 {
			t.Logf("stress: %d/%d iterations clean", it+1, iters)
		}
	}
}

func first3[A, B, C any](a A, _ B, _ C) A { return a }
