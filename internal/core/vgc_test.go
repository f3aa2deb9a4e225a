package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// probe runs one localSearch round whose visit claims every undiscovered
// out-neighbor, and records what was visited, what was spilled, and the
// arcs visit reported.
type probe struct {
	claimed, visited, spilled []atomic.Int32
	returned                  atomic.Int64
	met                       *Metrics
}

func runProbe(a graph.Adjacency, roots []uint32, budget int) *probe {
	n := a.NumVertices()
	pr := &probe{
		claimed: make([]atomic.Int32, n),
		visited: make([]atomic.Int32, n),
		spilled: make([]atomic.Int32, n),
		met:     &Metrics{},
	}
	for _, r := range roots {
		pr.claimed[r].Store(1)
	}
	sc := graph.ScanOut(a)
	ls := &localSearch{met: pr.met}
	ls.round(roots, budget, nil, func(u uint32, s *scratch) int {
		pr.visited[u].Add(1)
		nbrs := sc.Neighbors(u, s.nbuf)
		for _, w := range nbrs {
			if pr.claimed[w].CompareAndSwap(0, 1) {
				s.queue = append(s.queue, w)
			}
		}
		pr.returned.Add(int64(len(nbrs)))
		return len(nbrs)
	}, func(w uint32) { pr.spilled[w].Add(1) })
	return pr
}

// check asserts the operator's contract on a finished probe: a pushed
// vertex (every claimed one but the roots) is visited or spilled, exactly
// once; a root is visited once; nothing else is touched; and EdgesVisited
// is the sum of what visit returned.
func (pr *probe) check(t *testing.T, roots []uint32) {
	t.Helper()
	root := make(map[uint32]bool, len(roots))
	for _, r := range roots {
		root[r] = true
	}
	for v := range pr.claimed {
		c, vis, sp := pr.claimed[v].Load(), pr.visited[v].Load(), pr.spilled[v].Load()
		switch {
		case root[uint32(v)] && (vis != 1 || sp != 0):
			t.Fatalf("root %d visited %d times, spilled %d times; want 1 and 0", v, vis, sp)
		case c == 1 && vis+sp != 1:
			t.Fatalf("pushed vertex %d visited %d times, spilled %d times; want exactly one of the two", v, vis, sp)
		case c == 0 && vis+sp != 0:
			t.Fatalf("vertex %d never pushed, but visited %d times, spilled %d times", v, vis, sp)
		}
	}
	if got, want := pr.met.EdgesVisited, pr.returned.Load(); got != want {
		t.Fatalf("EdgesVisited = %d, visit returned %d arcs in total", got, want)
	}
}

// set returns the vertices whose counter in cs is non-zero.
func set(cs []atomic.Int32) []uint32 {
	var out []uint32
	for v := range cs {
		if cs[v].Load() != 0 {
			out = append(out, uint32(v))
		}
	}
	return out
}

func span(lo, hi int) []uint32 { // [lo, hi)
	var out []uint32
	for v := lo; v < hi; v++ {
		out = append(out, uint32(v))
	}
	return out
}

func representations(g *graph.Graph) map[string]graph.Adjacency {
	return map[string]graph.Adjacency{"plain": g, "pz": graph.Compress(g)}
}

// TestLocalSearchSpillsTheUnvisitedTail runs one search from vertex 0 on
// one worker, where the visit order is fixed, and checks which vertices
// it visits and which it spills. On the directed path 0→1→…→599 every
// visit scans one arc, so the search visits 0…τ-1 and spills τ. On a
// star with 300 leaves the center's visit scans 300 arcs and pushes every
// leaf; each leaf's visit scans its one arc back, so the search visits the
// first τ-300 leaves and spills the rest (all of them when τ <= 300).
func TestLocalSearchSpillsTheUnvisitedTail(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const leaves = 300
	type want struct{ visited, spilled []uint32 }
	shapes := []struct {
		name string
		g    *graph.Graph
		want func(tau int) want
	}{
		{"path", gen.Chain(600, true), func(tau int) want {
			return want{span(0, tau), span(tau, tau+1)}
		}},
		{"star", gen.Star(leaves + 1), func(tau int) want {
			seen := max(0, tau-leaves) // leaves visited after the center
			return want{span(0, 1+seen), span(1+seen, 1+leaves)}
		}},
	}
	for _, sh := range shapes {
		for rep, a := range representations(sh.g) {
			for _, tau := range []int{1, 2, 64, 512} {
				t.Run(fmt.Sprintf("%s/%s/tau=%d", sh.name, rep, tau), func(t *testing.T) {
					roots := []uint32{0}
					pr := runProbe(a, roots, tau)
					pr.check(t, roots)
					w := sh.want(tau)
					if got := set(pr.visited); fmt.Sprint(got) != fmt.Sprint(w.visited) {
						t.Fatalf("visited %v, want %v", got, w.visited)
					}
					if got := set(pr.spilled); fmt.Sprint(got) != fmt.Sprint(w.spilled) {
						t.Fatalf("spilled %v, want %v", got, w.spilled)
					}
				})
			}
		}
	}
}

// TestLocalSearchExactlyOnce runs many concurrent searches over one grid
// at several worker counts and budgets, including SSSP's zero budget
// (visit the root, spill all it discovers), and checks the contract.
func TestLocalSearchExactlyOnce(t *testing.T) {
	g := gen.Grid2D(48, 48, false, 1)
	var roots []uint32
	for v := 0; v < g.N; v += 37 {
		roots = append(roots, uint32(v))
	}
	for _, p := range []int{1, 2, 4} {
		for rep, a := range representations(g) {
			for _, tau := range []int{0, 1, 2, 64, 512} {
				t.Run(fmt.Sprintf("p=%d/%s/tau=%d", p, rep, tau), func(t *testing.T) {
					defer parallel.SetWorkers(parallel.SetWorkers(p))
					pr := runProbe(a, roots, tau)
					pr.check(t, roots)
					if tau == 0 {
						for _, r := range roots {
							for _, w := range g.Neighbors(r) {
								if pr.claimed[w].Load() == 1 && pr.visited[w].Load() != 0 {
									t.Fatalf("zero budget: %d, discovered from root %d, was visited", w, r)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestLocalSearchRoundAllocs pins DESIGN.md §2.9 trap 4 for the operator:
// on a .pz graph, where every visit decodes into scratch, a round's heap
// allocations (the launch's, the closures') do not grow with the frontier.
// A scratch buffer on a chunk's stack, handed to visit, would escape and
// cost one allocation per frontier vertex.
func TestLocalSearchRoundAllocs(t *testing.T) {
	a := graph.Compress(gen.Grid2D(64, 64, false, 1))
	sc := graph.ScanOut(a)
	n := a.NumVertices()
	claimed := make([]atomic.Int32, n)
	var spilled atomic.Int64
	ls := &localSearch{met: &Metrics{}}
	allocs := func(size int) float64 {
		f := make([]uint32, size)
		for i := range f {
			f[i] = uint32(i * (n / size))
		}
		return testing.AllocsPerRun(20, func() {
			for v := range claimed {
				claimed[v].Store(0)
			}
			ls.round(f, 16, nil, func(u uint32, s *scratch) int {
				nbrs := sc.Neighbors(u, s.nbuf)
				for _, w := range nbrs {
					if claimed[w].CompareAndSwap(0, 1) {
						s.queue = append(s.queue, w)
					}
				}
				return len(nbrs)
			}, func(uint32) { spilled.Add(1) })
		})
	}
	small, large := allocs(8), allocs(1024)
	if large > small {
		t.Fatalf("a round allocates %.0f times over 8 frontier vertices and %.0f over 1024: scratch is allocated per chunk", small, large)
	}
}
