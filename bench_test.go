// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// targets (the full 22-workload sweep lives in cmd/pasgal-bench; these use
// a representative subset — one graph per diameter class per category — so
// `go test -bench=.` completes in reasonable time):
//
//	BenchmarkTab4BFS        — appendix BFS table (PASGAL, GBBS, GAPBS, queue)
//	BenchmarkTab3SCC        — appendix SCC table (PASGAL, GBBS, Multistep, Tarjan)
//	BenchmarkTab2BCC        — appendix BCC table (PASGAL, GBBS, TV, Hopcroft–Tarjan)
//	BenchmarkSSSP           — §2.2 SSSP shape claim (ρ/Δ-stepping vs baselines)
//	BenchmarkFig1SCCScaling — Figure 1: SCC vs worker count
//	BenchmarkAblationTau    — VGC budget sweep
//	BenchmarkHashBag        — hash bag vs flat frontier
package pasgal

import (
	"fmt"
	"sync"
	"testing"

	"pasgal/internal/baseline"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// benchScale keeps `go test -bench=.` tractable on small machines; the cmd
// harness defaults to scale 1.0.
const benchScale = 0.15

// benchGraphNames is the representative subset: low-diameter social (TW),
// web with tendrils (CW), road (NA), k-NN (CH5), extreme-diameter grid
// (REC).
var benchGraphNames = []string{"TW", "CW", "NA", "CH5", "REC"}

var benchCache sync.Map

func benchGraph(name string) *graph.Graph {
	if g, ok := benchCache.Load(name); ok {
		return g.(*graph.Graph)
	}
	s := gen.LookupSpec(name)
	if s == nil {
		panic("unknown bench graph " + name)
	}
	g := s.Build(benchScale)
	benchCache.Store(name, g)
	return g
}

func benchSym(name string) *graph.Graph {
	key := name + "/sym"
	if g, ok := benchCache.Load(key); ok {
		return g.(*graph.Graph)
	}
	g := benchGraph(name).Symmetrized()
	benchCache.Store(key, g)
	return g
}

func benchWeighted(name string) *graph.Graph {
	key := name + "/w"
	if g, ok := benchCache.Load(key); ok {
		return g.(*graph.Graph)
	}
	g := gen.AddUniformWeights(benchGraph(name), 1, 1<<16, 40400)
	benchCache.Store(key, g)
	return g
}

// BenchmarkTab4BFS regenerates the BFS running-time table rows.
func BenchmarkTab4BFS(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchGraph(name)
		src := gen.PickSource(g)
		b.Run(name+"/PASGAL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BFS(g, src, core.Options{})
			}
		})
		b.Run(name+"/GBBS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.GBBSBFS(g, src, core.Options{})
			}
		})
		b.Run(name+"/GAPBS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.GAPBSBFS(g, src, core.Options{})
			}
		})
		b.Run(name+"/SeqQueue", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.BFS(g, src)
			}
		})
	}
}

// BenchmarkTab3SCC regenerates the SCC running-time table rows.
func BenchmarkTab3SCC(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchGraph(name)
		if !g.Directed {
			continue
		}
		b.Run(name+"/PASGAL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SCC(g, core.Options{})
			}
		})
		b.Run(name+"/GBBS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.GBBSSCC(g, core.Options{})
			}
		})
		b.Run(name+"/Multistep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.MultistepSCC(g, core.Options{})
			}
		})
		b.Run(name+"/Tarjan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.TarjanSCC(g)
			}
		})
	}
}

// BenchmarkTab2BCC regenerates the BCC running-time table rows (on
// symmetrized graphs, as in the paper).
func BenchmarkTab2BCC(b *testing.B) {
	for _, name := range benchGraphNames {
		g := benchSym(name)
		b.Run(name+"/PASGAL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BCC(g, core.Options{})
			}
		})
		b.Run(name+"/GBBS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.GBBSBCC(g, core.Options{})
			}
		})
		b.Run(name+"/TV", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.TarjanVishkinBCC(g, core.Options{})
			}
		})
		b.Run(name+"/HopcroftTarjan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.HopcroftTarjanBCC(g)
			}
		})
	}
}

// BenchmarkSSSP documents the stepping-framework comparison (no paper
// table; §2.2 claims the shape).
func BenchmarkSSSP(b *testing.B) {
	for _, name := range []string{"TW", "NA", "REC"} {
		g := benchWeighted(name)
		src := gen.PickSource(g)
		b.Run(name+"/PASGAL-rho", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SSSP(g, src, core.RhoStepping{}, core.Options{})
			}
		})
		b.Run(name+"/PASGAL-delta", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SSSP(g, src, core.DeltaStepping{Delta: 1 << 15}, core.Options{})
			}
		})
		b.Run(name+"/DeltaStep", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.DeltaSteppingSSSP(g, src, 1<<15, core.Options{})
			}
		})
		b.Run(name+"/Dijkstra", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.Dijkstra(g, src)
			}
		})
	}
}

// BenchmarkFig1SCCScaling regenerates Figure 1: SCC per worker count on a
// low-diameter (TW) and a large-diameter (REC) graph.
func BenchmarkFig1SCCScaling(b *testing.B) {
	for _, name := range []string{"TW", "REC"} {
		g := benchGraph(name)
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/PASGAL/p%d", name, p), func(b *testing.B) {
				old := parallel.SetWorkers(p)
				defer parallel.SetWorkers(old)
				for i := 0; i < b.N; i++ {
					core.SCC(g, core.Options{})
				}
			})
			b.Run(fmt.Sprintf("%s/GBBS/p%d", name, p), func(b *testing.B) {
				old := parallel.SetWorkers(p)
				defer parallel.SetWorkers(old)
				for i := 0; i < b.N; i++ {
					baseline.GBBSSCC(g, core.Options{})
				}
			})
		}
		b.Run(name+"/Tarjan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.TarjanSCC(g)
			}
		})
	}
}

// BenchmarkAblationTau sweeps the VGC budget on the extreme-diameter grid.
func BenchmarkAblationTau(b *testing.B) {
	g := benchGraph("REC")
	src := gen.PickSource(g)
	for _, tau := range []int{1, 32, 512, 4096} {
		b.Run(fmt.Sprintf("tau%d", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BFS(g, src, core.Options{Tau: tau, DisableDirectionOpt: true})
			}
		})
	}
}

// BenchmarkHashBag contrasts BFS's frontier lists with flat dense
// frontiers (Options.DisableHashBag; the names predate the lists).
func BenchmarkHashBag(b *testing.B) {
	g := benchGraph("REC")
	src := gen.PickSource(g)
	b.Run("lists", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BFS(g, src, core.Options{})
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BFS(g, src, core.Options{DisableHashBag: true})
		}
	})
}
