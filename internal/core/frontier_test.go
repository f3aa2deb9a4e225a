package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

func sorted(s []uint32) []uint32 {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// TestFrontierSetRing checks BFS's distance ring of per-participant lists,
// in both frontier modes and at 1, 2 and 4 workers: every participant
// files its own inserts, a bucket reads non-empty while any participant's
// list (or, flat, its bitmap) holds an entry, extraction returns the
// multiset union of the bottom-up writes (file) and the top-down spills
// (insert) and leaves every participant's list for the slot empty, and
// distances d and d+k share ring slot d%k: after a drain at d, the slot
// serves d+k and then d+2k with nothing of the earlier lap left over.
func TestFrontierSetRing(t *testing.T) {
	const n, k = 5000, 6
	for _, p := range []int{1, 2, 4} {
		for _, flat := range []bool{false, true} {
			t.Run(fmt.Sprintf("p=%d/flat=%v", p, flat), func(t *testing.T) {
				defer parallel.SetWorkers(parallel.SetWorkers(p))
				ls := &localSearch{slots: k, met: &Metrics{}}
				fs := newFrontierSet(n, k, flat, ls)
				for d := 0; d < 2*k; d++ {
					if !fs.empty(d) {
						t.Fatalf("fresh bucket %d not empty", d)
					}
				}
				// Lap 0 fills bucket 2, lap 1 bucket 2+k, lap 2 bucket
				// 2+2k: every slot's lists are drained and refilled.
				for lap := 0; lap < 3; lap++ {
					d := 2 + lap*k
					// Multiples of 3 are filed, multiples of 2 spilled,
					// from a launch of grain-1 chunks over [0, n): the
					// multiples of 6 come back twice. The lap's offset
					// tells its entries from the previous lap's.
					var want []uint32
					ls.each(n, 1, func(s *scratch, lo, hi int) {
						for v := uint32(lo); v < uint32(hi); v++ {
							if v%3 == 0 {
								fs.file(s, d, v+uint32(lap))
							}
							if v%2 == 0 {
								fs.insert(s, d, v+uint32(lap))
							}
						}
					})
					for v := uint32(0); v < n; v++ {
						if v%3 == 0 {
							want = append(want, v+uint32(lap))
						}
						if v%2 == 0 {
							want = append(want, v+uint32(lap))
						}
					}
					slices.Sort(want)
					for e := d % k; e < 3*k; e += k {
						if fs.empty(e) {
							t.Fatalf("lap %d: bucket %d reads empty with slot %d filled", lap, e, d%k)
						}
					}
					if !fs.empty(d+1) || !fs.empty(d-1) {
						t.Fatalf("lap %d: filling bucket %d made a neighbour non-empty", lap, d)
					}
					got := sorted(fs.extract(nil, d))
					if !slices.Equal(got, want) {
						t.Fatalf("lap %d: extract(%d) has %d entries, want the %d of the multiset union", lap, d, len(got), len(want))
					}
					if !fs.empty(d) || !ls.empty(d%k) {
						t.Fatalf("lap %d: bucket %d not empty after extract", lap, d)
					}
				}
			})
		}
	}
}

// TestFrontierSetGatherReuses checks gather's window: buckets past the
// grab limit stay put, every entry carries its bucket's distance, and the
// returned slices are the set's own, reused by the next call.
func TestFrontierSetGatherReuses(t *testing.T) {
	ls := &localSearch{slots: 8, met: &Metrics{}}
	fs := newFrontierSet(100, 8, false, ls)
	ls.grow(1)
	s := ls.team[0]
	for d, vs := range map[int][]uint32{3: {30, 31}, 4: {40}, 6: {60, 61, 62}} {
		for _, v := range vs {
			fs.insert(s, d, v)
		}
	}
	f, bucketOf := fs.gather(3, 4, 2)
	if !slices.Equal(f, []uint32{30, 31, 40}) || !slices.Equal(bucketOf, []uint32{3, 3, 4}) {
		t.Fatalf("gather(3, 4, 2) = %v %v, want [30 31 40] [3 3 4]", f, bucketOf)
	}
	if fs.empty(6) {
		t.Fatal("bucket 6, past the grab limit, was drained")
	}
	g, _ := fs.gather(6, 1, 1)
	if !slices.Equal(g, []uint32{60, 61, 62}) || &g[0] != &f[0] {
		t.Fatalf("second gather = %v; want [60 61 62] in the first call's buffer", g)
	}
}

// stealer forces work stealing in a round over f with grain-1 chunks: the
// visit of f[0], which participant 0 runs first, waits until the other
// participants have started more roots than their own ranges hold, which
// they can only do by taking from participant 0's range.
type stealer struct {
	t       *testing.T
	first   uint32
	need    int32
	started atomic.Int32
}

func newStealer(t *testing.T, f []uint32) *stealer {
	k := min(parallel.Workers(), len(f))
	own0 := (len(f) + k - 1) / k
	return &stealer{t: t, first: f[0], need: int32(len(f) - own0 + 1)}
}

// root is called at the start of every root's visit.
func (st *stealer) root(u uint32) {
	if u != st.first {
		st.started.Add(1)
		return
	}
	if parallel.Workers() == 1 {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.started.Load() < st.need {
		if time.Now().After(deadline) {
			st.t.Errorf("helpers started %d roots, never took from participant 0", st.started.Load())
			return
		}
		runtime.Gosched()
	}
}

// TestLocalSearchListsExactlyOnce checks the operator's single-owner
// frontiers at 1, 2 and 4 workers, with stealing forced: every vertex a
// visit claims by CAS is visited in-task or appears in the next frontier
// (next(0), the spilled tails), exactly once; and every vertex a visit
// files in a list of its own (slot 1, as SSSP files its far discoveries)
// appears in take(1) exactly once per claim.
func TestLocalSearchListsExactlyOnce(t *testing.T) {
	g := gen.Grid2D(48, 48, false, 1)
	var roots []uint32
	for v := 0; v < g.N; v += 37 {
		roots = append(roots, uint32(v))
	}
	isRoot := make([]bool, g.N)
	for _, r := range roots {
		isRoot[r] = true
	}
	for _, p := range []int{1, 2, 4} {
		for _, tau := range []int{0, 2, 64} {
			t.Run(fmt.Sprintf("p=%d/tau=%d", p, tau), func(t *testing.T) {
				defer parallel.SetWorkers(parallel.SetWorkers(p))
				before := parallel.SchedStats().Steals
				n := g.N
				claimed := make([]atomic.Int32, n)
				visited := make([]atomic.Int32, n)
				for _, r := range roots {
					claimed[r].Store(1)
				}
				sc := graph.ScanOut(g)
				st := newStealer(t, roots)
				ls := &localSearch{slots: 2, met: &Metrics{}}
				ls.round(roots, tau, nil, func(u uint32, s *scratch) int {
					if isRoot[u] {
						st.root(u)
					}
					visited[u].Add(1)
					nbrs := sc.Neighbors(u, s.nbuf)
					for _, w := range nbrs {
						if claimed[w].CompareAndSwap(0, 1) {
							if w%5 == 0 {
								s.out[1] = append(s.out[1], w) // filed, never visited
							} else {
								s.queue = append(s.queue, w)
							}
						}
					}
					return len(nbrs)
				}, spillNext)
				spilled := make([]int, n)
				for _, w := range ls.next(0) {
					spilled[w]++
				}
				filed := make([]int, n)
				for _, w := range ls.take(nil, 1) {
					filed[w]++
				}
				for v := 0; v < n; v++ {
					c, vis := claimed[v].Load(), int(visited[v].Load())
					switch {
					case isRoot[v] && (vis != 1 || spilled[v]+filed[v] != 0):
						t.Fatalf("root %d visited %d times, listed %d times; want 1 and 0", v, vis, spilled[v]+filed[v])
					case isRoot[v]:
					case c == 1 && v%5 == 0 && (filed[v] != 1 || vis+spilled[v] != 0):
						t.Fatalf("filed vertex %d listed %d times in slot 1, visited or spilled %d times; want 1 and 0", v, filed[v], vis+spilled[v])
					case c == 1 && v%5 != 0 && (vis+spilled[v] != 1 || filed[v] != 0):
						t.Fatalf("claimed vertex %d visited %d times, spilled %d times; want exactly one of the two", v, vis, spilled[v])
					case c == 0 && vis+spilled[v]+filed[v] != 0:
						t.Fatalf("vertex %d never claimed, but visited or listed", v)
					}
				}
				if !ls.empty(0) || !ls.empty(1) {
					t.Fatal("lists not empty after next and take")
				}
				if p > 1 && parallel.SchedStats().Steals == before {
					t.Fatalf("p=%d: no steal recorded", p)
				}
			})
		}
	}
}

// TestLocalSearchSpillListsKeepCapacity pins that the frontier lists are
// grown once for the run: after warm-up, a round that spills every vertex
// it discovers (τ = 0) and drains the spills with next allocates no more
// than the same round whose spill drops the tail. At one worker every
// round spills the same vertices into the same list; at two, which list
// gets them varies, and a list grows only until it has held the most it
// is ever given.
func TestLocalSearchSpillListsKeepCapacity(t *testing.T) {
	a := graph.Compress(gen.Grid2D(64, 64, false, 1))
	sc := graph.ScanOut(a)
	n := a.NumVertices()
	var roots []uint32
	for v := 0; v < n; v += 16 {
		roots = append(roots, uint32(v))
	}
	claimed := make([]atomic.Int32, n)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			defer parallel.SetWorkers(parallel.SetWorkers(p))
			allocs := func(spill func([]uint32, *scratch)) (float64, int) {
				ls := &localSearch{slots: 1, met: &Metrics{}}
				total := 0
				run := func() {
					for v := range claimed {
						claimed[v].Store(0)
					}
					ls.round(roots, 0, nil, func(u uint32, s *scratch) int {
						nbrs := sc.Neighbors(u, s.nbuf)
						for _, w := range nbrs {
							if claimed[w].CompareAndSwap(0, 1) {
								s.queue = append(s.queue, w)
							}
						}
						return len(nbrs)
					}, spill)
					total = len(ls.next(0))
				}
				for range 20 {
					run()
				}
				return testing.AllocsPerRun(100, run), total
			}
			lists, spilled := allocs(spillNext)
			dropped, _ := allocs(func([]uint32, *scratch) {})
			if spilled == 0 {
				t.Fatal("the round spilled nothing")
			}
			if lists > dropped {
				t.Fatalf("a round spilling %d vertices into the lists allocates %.0f times, %.0f when the spill is dropped: the lists re-allocate", spilled, lists, dropped)
			}
		})
	}
}
