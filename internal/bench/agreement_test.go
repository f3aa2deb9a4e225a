package bench

import (
	"testing"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// TestAllImplementationsAgree is the repo's broadest integration test:
// on every one of the 22 registry workloads (at tiny scale), every
// implementation of every problem must produce results equivalent to the
// sequential reference.
func TestAllImplementationsAgree(t *testing.T) {
	for _, s := range gen.Registry() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			g := s.Build(0.02)
			src := gen.PickSource(g)

			// BFS: all four implementations agree.
			want := seq.BFS(g, src)
			for name, run := range map[string]func() []uint32{
				"pasgal": func() []uint32 { d, _, _ := core.BFS(g, src, core.Options{}); return d },
				"gbbs":   func() []uint32 { d, _, _ := baseline.GBBSBFS(g, src, core.Options{}); return d },
				"gapbs":  func() []uint32 { d, _, _ := baseline.GAPBSBFS(g, src, core.Options{}); return d },
			} {
				got := run()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("BFS %s: dist[%d] = %d, want %d", name, v, got[v], want[v])
					}
				}
			}

			// SCC (directed workloads): three parallel implementations and
			// two independent sequential algorithms must all agree.
			if g.Directed {
				wantC, wantN := seq.TarjanSCC(g)
				for name, run := range map[string]func() ([]uint32, int){
					"pasgal":   func() ([]uint32, int) { c, n, _, _ := core.SCC(g, core.Options{}); return c, n },
					"gbbs":     func() ([]uint32, int) { c, n, _, _ := baseline.GBBSSCC(g, core.Options{}); return c, n },
					"multi":    func() ([]uint32, int) { c, n, _, _ := baseline.MultistepSCC(g, core.Options{}); return c, n },
					"kosaraju": func() ([]uint32, int) { return seq.KosarajuSCC(g) },
				} {
					gotC, gotN := run()
					if gotN != wantN {
						t.Fatalf("SCC %s: count %d, want %d", name, gotN, wantN)
					}
					if !partitionsMatch(gotC, wantC) {
						t.Fatalf("SCC %s: partition mismatch", name)
					}
				}
			}

			// BCC on the symmetrized graph.
			sym := g.Symmetrized()
			wantB := seq.HopcroftTarjanBCC(sym)
			for name, run := range map[string]func() core.BCCResult{
				"pasgal": func() core.BCCResult { r, _, _ := core.BCC(sym, core.Options{}); return r },
				"gbbs":   func() core.BCCResult { r, _, _ := baseline.GBBSBCC(sym, core.Options{}); return r },
				"tv":     func() core.BCCResult { r, _, _, _ := baseline.TarjanVishkinBCC(sym, core.Options{}); return r },
			} {
				got := run()
				if got.NumBCC != wantB.NumBCC {
					t.Fatalf("BCC %s: %d components, want %d", name, got.NumBCC, wantB.NumBCC)
				}
				if !partitionsMatch(got.ArcLabel, wantB.ArcLabel) {
					t.Fatalf("BCC %s: arc partition mismatch", name)
				}
			}

			// SSSP.
			wg := gen.AddUniformWeights(g, 1, 1000, 99)
			wantD := seq.Dijkstra(wg, src)
			for name, run := range map[string]func() []uint64{
				"rho": func() []uint64 {
					d, _, _ := core.SSSP(wg, src, core.RhoStepping{}, core.Options{})
					return d
				},
				"delta": func() []uint64 {
					d, _, _ := core.SSSP(wg, src, core.DeltaStepping{Delta: 500}, core.Options{})
					return d
				},
				"base": func() []uint64 { d, _, _ := baseline.DeltaSteppingSSSP(wg, src, 500, core.Options{}); return d },
			} {
				got := run()
				for v := range wantD {
					if got[v] != wantD[v] {
						t.Fatalf("SSSP %s: dist[%d] = %d, want %d", name, v, got[v], wantD[v])
					}
				}
			}

			// k-core on the symmetrized graph.
			wantK, wantDg := seq.KCore(sym)
			gotK, gotDg, _, _ := core.KCore(sym, core.Options{})
			if gotDg != wantDg {
				t.Fatalf("KCore: degeneracy %d, want %d", gotDg, wantDg)
			}
			for v := range wantK {
				if gotK[v] != wantK[v] {
					t.Fatalf("KCore: coreness[%d] = %d, want %d", v, gotK[v], wantK[v])
				}
			}
		})
	}
}

// partitionsMatch checks two labelings induce the same partition (None
// labels must coincide).
func partitionsMatch(a, b []uint32) bool {
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for i := range a {
		if (a[i] == graph.None) != (b[i] == graph.None) {
			return false
		}
		if a[i] == graph.None {
			continue
		}
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := bwd[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}
