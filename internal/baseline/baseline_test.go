package baseline

import (
	"math/rand/v2"
	"testing"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

func suite(directed bool) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"chain":  gen.Chain(1500, directed),
		"cycle":  gen.Cycle(1000, directed),
		"grid":   gen.Grid2D(30, 40, directed, 1),
		"rmat":   gen.SocialRMAT(10, 8, directed, 2),
		"er":     gen.ER(800, 2500, directed, 3),
		"sparse": gen.ER(900, 400, directed, 4),
	}
	if directed {
		gs["weblike"] = gen.WebLike(3000, 6, 0.3, 40, 5)
	} else {
		gs["knn"] = gen.KNN(1200, 4, 8, false, 6)
		gs["star"] = gen.Star(300)
	}
	return gs
}

func samePartition(t *testing.T, name string, a, b []uint32) {
	t.Helper()
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			t.Fatalf("%s: partition mismatch at %d", name, i)
		}
		if y, ok := bwd[b[i]]; ok && y != a[i] {
			t.Fatalf("%s: partition mismatch at %d", name, i)
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
}

// --- BFS baselines ---

func TestGBBSBFSMatchesSequential(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for name, g := range suite(directed) {
			want := seq.BFS(g, 0)
			got, met, _ := GBBSBFS(g, 0, core.Options{})
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: dist[%d] = %d, want %d", name, v, got[v], want[v])
				}
			}
			if name == "chain" && met.Rounds < 1400 {
				t.Fatalf("level-synchronous BFS should take ~n rounds on a chain, got %d", met.Rounds)
			}
		}
	}
}

func TestGAPBSBFSMatchesSequential(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for name, g := range suite(directed) {
			want := seq.BFS(g, 0)
			got, _, _ := GAPBSBFS(g, 0, core.Options{})
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: dist[%d] = %d, want %d", name, v, got[v], want[v])
				}
			}
		}
	}
}

func TestBFSBaselinesRandomSources(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := gen.SampledGrid(40, 40, 0.85, false, 7)
	for trial := 0; trial < 6; trial++ {
		src := uint32(rng.IntN(g.N))
		want := seq.BFS(g, src)
		g1, _, _ := GBBSBFS(g, src, core.Options{})
		g2, _, _ := GAPBSBFS(g, src, core.Options{})
		for v := range want {
			if g1[v] != want[v] || g2[v] != want[v] {
				t.Fatalf("src %d vertex %d: gbbs=%d gapbs=%d want=%d",
					src, v, g1[v], g2[v], want[v])
			}
		}
	}
}

// Direction optimization must fire on a dense social graph.
func TestBFSBaselinesBottomUpTriggers(t *testing.T) {
	g := gen.SocialRMAT(12, 16, false, 8)
	_, met, _ := GBBSBFS(g, 0, core.Options{})
	if met.BottomUp == 0 {
		t.Fatal("GBBS BFS never went bottom-up on a social graph")
	}
	_, met, _ = GAPBSBFS(g, 0, core.Options{})
	if met.BottomUp == 0 {
		t.Fatal("GAPBS BFS never went bottom-up on a social graph")
	}
}

// --- SCC baselines ---

func TestGBBSSCCMatchesTarjan(t *testing.T) {
	for name, g := range suite(true) {
		want, wantCount := seq.TarjanSCC(g)
		got, count, _, _ := GBBSSCC(g, core.Options{})
		if count != wantCount {
			t.Fatalf("%s: count = %d, want %d", name, count, wantCount)
		}
		samePartition(t, name, got, want)
	}
}

func TestMultistepSCCMatchesTarjan(t *testing.T) {
	for name, g := range suite(true) {
		want, wantCount := seq.TarjanSCC(g)
		got, count, _, _ := MultistepSCC(g, core.Options{})
		if count != wantCount {
			t.Fatalf("%s: count = %d, want %d", name, count, wantCount)
		}
		samePartition(t, name, got, want)
	}
}

func TestSCCBaselinesRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(250)
		g := gen.ER(n, rng.IntN(4*n+1), true, uint64(700+trial))
		want, wantCount := seq.TarjanSCC(g)
		for _, impl := range []struct {
			name string
			run  func(*graph.Graph, core.Options) ([]uint32, int, *core.Metrics, error)
		}{{"gbbs", GBBSSCC}, {"multistep", MultistepSCC}} {
			got, count, _, _ := impl.run(g, core.Options{})
			if count != wantCount {
				t.Fatalf("trial %d %s: count %d want %d", trial, impl.name, count, wantCount)
			}
			samePartition(t, impl.name, got, want)
		}
	}
}

// --- BCC baselines ---

func bccEquivalent(t *testing.T, name string, g *graph.Graph, got core.BCCResult) {
	t.Helper()
	want := seq.HopcroftTarjanBCC(g)
	if got.NumBCC != want.NumBCC {
		t.Fatalf("%s: NumBCC = %d, want %d", name, got.NumBCC, want.NumBCC)
	}
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for e := range got.ArcLabel {
		a, b := got.ArcLabel[e], want.ArcLabel[e]
		if (a == graph.None) != (b == graph.None) {
			t.Fatalf("%s: arc %d labeledness differs", name, e)
		}
		if a == graph.None {
			continue
		}
		if x, ok := fwd[a]; ok && x != b {
			t.Fatalf("%s: arc partition mismatch at %d", name, e)
		}
		if y, ok := bwd[b]; ok && y != a {
			t.Fatalf("%s: arc partition mismatch at %d", name, e)
		}
		fwd[a] = b
		bwd[b] = a
	}
	for v := range got.IsArt {
		if got.IsArt[v] != want.IsArtPort[v] {
			t.Fatalf("%s: articulation[%d] = %v, want %v", name, v, got.IsArt[v], want.IsArtPort[v])
		}
	}
}

func TestTarjanVishkinBCC(t *testing.T) {
	for name, g := range suite(false) {
		got, _, auxBytes, _ := TarjanVishkinBCC(g, core.Options{})
		bccEquivalent(t, name, g, got)
		if len(g.Edges) > 0 && auxBytes <= 0 {
			t.Fatalf("%s: aux bytes not reported", name)
		}
	}
}

func TestGBBSBCC(t *testing.T) {
	for name, g := range suite(false) {
		got, met, _ := GBBSBCC(g, core.Options{})
		bccEquivalent(t, name, g, got)
		if name == "chain" && met.Rounds < 1400 {
			t.Fatalf("BFS-tree BCC should take ~n rounds on a chain, got %d", met.Rounds)
		}
	}
}

func TestBCCBaselinesRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(200)
		g := gen.ER(n, rng.IntN(3*n+1), false, uint64(800+trial))
		tv, _, _, _ := TarjanVishkinBCC(g, core.Options{})
		bccEquivalent(t, "tv", g, tv)
		gb, _, _ := GBBSBCC(g, core.Options{})
		bccEquivalent(t, "gbbs", g, gb)
	}
}

// --- SSSP baseline ---

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for name, g := range suite(directed) {
			wg := gen.AddUniformWeights(g, 1, 50, 9)
			want := seq.Dijkstra(wg, 0)
			for _, delta := range []uint64{0, 1, 7, 100} {
				got, _, _ := DeltaSteppingSSSP(wg, 0, delta, core.Options{})
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s delta=%d: dist[%d] = %d, want %d",
							name, delta, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestDeltaSteppingEmptyGraph(t *testing.T) {
	g := gen.AddUniformWeights(graph.FromEdges(3, nil, true, graph.BuildOptions{}), 1, 1, 1)
	got, _, _ := DeltaSteppingSSSP(g, 1, 0, core.Options{})
	if got[1] != 0 || got[0] != core.InfWeight {
		t.Fatalf("empty graph distances wrong: %v", got)
	}
}

func TestGBBSBellmanFordMatchesDijkstra(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for name, g := range suite(directed) {
			wg := gen.AddUniformWeights(g, 1, 500, 10)
			want := seq.Dijkstra(wg, 0)
			got, met, _ := GBBSBellmanFordSSSP(wg, 0, core.Options{})
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: dist[%d] = %d, want %d", name, v, got[v], want[v])
				}
			}
			if name == "chain" && met.Rounds < 1400 {
				t.Fatalf("level-sync BF should take ~n rounds on a chain, got %d", met.Rounds)
			}
		}
	}
}

func TestGBBSBellmanFordEmpty(t *testing.T) {
	g := gen.AddUniformWeights(graph.FromEdges(2, nil, true, graph.BuildOptions{}), 1, 1, 1)
	got, _, _ := GBBSBellmanFordSSSP(g, 0, core.Options{})
	if got[0] != 0 || got[1] != core.InfWeight {
		t.Fatal("empty BF wrong")
	}
}
