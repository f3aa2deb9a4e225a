package parallel

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
)

// The scheduler conformance suite: every primitive in the package checked
// against a sequential oracle across adversarial worker counts, grains, and
// sizes. The axes deliberately include the degenerate paths — empty loops,
// single-chunk inline execution, grain exactly equal to / one off from n,
// and more workers than chunks — because those are the branches a scheduler
// rewrite is most likely to get subtly wrong.

// confWorkers returns the worker counts to sweep: {1, 2, 3, GOMAXPROCS},
// deduplicated.
func confWorkers() []int {
	ws := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// confSizes returns the loop sizes to sweep for worker count p.
func confSizes(p int) []int {
	ns := []int{0, 1, 7, p, 10000}
	slices.Sort(ns)
	return slices.Compact(ns)
}

// confGrains returns the grain values to sweep for size n: adversarial
// boundaries plus 0 (auto).
func confGrains(n int) []int {
	gs := []int{1, 2, n - 1, n, n + 1, 0}
	slices.Sort(gs)
	gs = slices.Compact(gs)
	out := gs[:0]
	for _, g := range gs {
		if g >= 0 {
			out = append(out, g)
		}
	}
	return out
}

func TestConformanceForRange(t *testing.T) {
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				for _, grain := range confGrains(n) {
					name := fmt.Sprintf("p=%d/n=%d/g=%d", p, n, grain)
					visits := make([]int32, n)
					var calls atomic.Int64
					ForRange(n, grain, func(lo, hi int) {
						calls.Add(1)
						if lo < 0 || hi > n || lo >= hi {
							panic(fmt.Sprintf("%s: bad chunk [%d,%d)", name, lo, hi))
						}
						if grain > 0 {
							// The documented alignment contract: exactly
							// [c*grain, min((c+1)*grain, n)).
							if lo%grain != 0 {
								panic(fmt.Sprintf("%s: lo=%d not grain-aligned", name, lo))
							}
							if want := min(lo+grain, n); hi != want {
								panic(fmt.Sprintf("%s: chunk [%d,%d), want hi=%d", name, lo, hi, want))
							}
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&visits[i], 1)
						}
					})
					for i, v := range visits {
						if v != 1 {
							t.Fatalf("%s: index %d visited %d times", name, i, v)
						}
					}
					if n == 0 && calls.Load() != 0 {
						t.Fatalf("%s: body called on empty loop", name)
					}
				}
			}
		})
	}
}

func TestConformanceFor(t *testing.T) {
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				for _, grain := range confGrains(n) {
					got := make([]int64, n)
					For(n, grain, func(i int) {
						atomic.AddInt64(&got[i], int64(i)*3+1)
					})
					for i := range got {
						if want := int64(i)*3 + 1; got[i] != want {
							t.Fatalf("p=%d n=%d g=%d: got[%d]=%d, want %d", p, n, grain, i, got[i], want)
						}
					}
				}
			}
		})
	}
}

func TestConformanceReduce(t *testing.T) {
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				var want int64
				for i := 0; i < n; i++ {
					want += int64(i)*int64(i) + 1
				}
				for _, grain := range confGrains(n) {
					got := Reduce(n, grain, int64(0),
						func(i int) int64 { return int64(i)*int64(i) + 1 },
						func(a, b int64) int64 { return a + b })
					if got != want {
						t.Fatalf("p=%d n=%d g=%d: Reduce = %d, want %d", p, n, grain, got, want)
					}
				}
			}
		})
	}
}

func TestConformanceScan(t *testing.T) {
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				rng := rand.New(rand.NewPCG(uint64(p), uint64(n)))
				src := make([]int64, n)
				for i := range src {
					src[i] = int64(rng.IntN(100)) - 50
				}
				// Exclusive oracle.
				excl := make([]int64, n)
				var acc int64
				for i, v := range src {
					excl[i] = acc
					acc += v
				}
				work := slices.Clone(src)
				if total := Scan(work); total != acc {
					t.Fatalf("p=%d n=%d: Scan total = %d, want %d", p, n, total, acc)
				}
				if !slices.Equal(work, excl) {
					t.Fatalf("p=%d n=%d: exclusive scan mismatch", p, n)
				}
				// Inclusive oracle.
				incl := make([]int64, n)
				acc = 0
				for i, v := range src {
					acc += v
					incl[i] = acc
				}
				work = slices.Clone(src)
				if total := ScanInclusive(work); total != acc {
					t.Fatalf("p=%d n=%d: ScanInclusive total = %d, want %d", p, n, total, acc)
				}
				if !slices.Equal(work, incl) {
					t.Fatalf("p=%d n=%d: inclusive scan mismatch", p, n)
				}
			}
		})
	}
}

func TestConformancePack(t *testing.T) {
	keep := func(i int) bool { return i%3 == 0 || i%7 == 2 }
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				var wantIdx []uint32
				for i := 0; i < n; i++ {
					if keep(i) {
						wantIdx = append(wantIdx, uint32(i))
					}
				}
				if got := PackIndex(n, keep); !slices.Equal(got, wantIdx) {
					t.Fatalf("p=%d n=%d: PackIndex = %v, want %v", p, n, got, wantIdx)
				}
				src := make([]int64, n)
				for i := range src {
					src[i] = int64(i) * 11
				}
				var wantVals []int64
				for i := 0; i < n; i++ {
					if keep(i) {
						wantVals = append(wantVals, src[i])
					}
				}
				if got := Pack(src, keep); !slices.Equal(got, wantVals) {
					t.Fatalf("p=%d n=%d: Pack mismatch", p, n)
				}
			}
		})
	}
}

func TestConformanceSort(t *testing.T) {
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				rng := rand.New(rand.NewPCG(uint64(p)*31, uint64(n)))
				ints := make([]int, n)
				for i := range ints {
					ints[i] = rng.IntN(max(n/2, 1)) // plenty of duplicates
				}
				want := slices.Clone(ints)
				slices.Sort(want)
				got := slices.Clone(ints)
				SortFunc(got, func(a, b int) bool { return a < b })
				if !slices.Equal(got, want) {
					t.Fatalf("p=%d n=%d: SortFunc mismatch", p, n)
				}
			}
		})
	}
}

// TestConformancePartitionByKey checks the stable bucket partition against
// a sort.SliceStable oracle. The grain is internal (defaultGrain under the
// swept worker count drives the chunking), so the adversarial axis here is
// the key range k: 1 (everything one bucket), tiny ranges with huge
// buckets, and ranges larger than the input.
func TestConformancePartitionByKey(t *testing.T) {
	type rec struct {
		key uint32
		id  int
	}
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				for _, k := range []int{1, 2, 3, 7, 256, 1000, n + 1} {
					if k < 1 {
						continue
					}
					rng := rand.New(rand.NewPCG(uint64(p)*13, uint64(n)*31+uint64(k)))
					src := make([]rec, n)
					for i := range src {
						src[i] = rec{key: uint32(rng.IntN(k)), id: i}
					}
					want := slices.Clone(src)
					sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
					hist := make([]int64, k)
					for _, r := range src {
						hist[r.key]++
					}
					dst := make([]rec, n)
					offsets := PartitionByKey(dst, src, k, func(r rec) uint32 { return r.key })
					if !slices.Equal(dst, want) {
						t.Fatalf("p=%d n=%d k=%d: partition not the stable order", p, n, k)
					}
					if len(offsets) != k+1 {
						t.Fatalf("p=%d n=%d k=%d: offsets length %d", p, n, k, len(offsets))
					}
					var acc int64
					for d := 0; d < k; d++ {
						if offsets[d] != acc {
							t.Fatalf("p=%d n=%d k=%d: offsets[%d]=%d, want %d", p, n, k, d, offsets[d], acc)
						}
						acc += hist[d]
					}
					if offsets[k] != int64(n) {
						t.Fatalf("p=%d n=%d k=%d: offsets[k]=%d, want %d", p, n, k, offsets[k], n)
					}
				}
			}
		})
	}
}

// TestConformanceCountSortByKey checks the payload-carrying radix sort
// against a sort.SliceStable oracle across key widths that exercise every
// pass-count (0 digits live, 1, several, all 8), with both a computed
// (maxKey=0) and an explicit tight bound. The input slice must come back
// untouched.
func TestConformanceCountSortByKey(t *testing.T) {
	type rec struct {
		key uint64
		id  int
	}
	widths := []uint{0, 1, 7, 8, 9, 16, 33, 64}
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				for _, w := range widths {
					rng := rand.New(rand.NewPCG(uint64(p)*7, uint64(n)*101+uint64(w)))
					recs := make([]rec, n)
					var maxKey uint64
					for i := range recs {
						var k uint64
						if w > 0 {
							k = rng.Uint64() >> (64 - w)
						}
						if k > maxKey {
							maxKey = k
						}
						recs[i] = rec{key: k, id: i}
					}
					orig := slices.Clone(recs)
					want := slices.Clone(recs)
					sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
					for _, bound := range []uint64{0, maxKey} {
						got := CountSortByKey(recs, func(r rec) uint64 { return r.key }, bound)
						if !slices.Equal(got, want) {
							t.Fatalf("p=%d n=%d w=%d bound=%d: not the stable order", p, n, w, bound)
						}
						if !slices.Equal(recs, orig) {
							t.Fatalf("p=%d n=%d w=%d bound=%d: input modified", p, n, w, bound)
						}
					}
				}
			}
		})
	}
}

func TestConformanceHistogram(t *testing.T) {
	const k = 97
	for _, p := range confWorkers() {
		withWorkers(t, p, func() {
			for _, n := range confSizes(p) {
				rng := rand.New(rand.NewPCG(uint64(p)*77, uint64(n)))
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = uint32(rng.IntN(k))
				}
				want := make([]int64, k)
				for _, key := range keys {
					want[key]++
				}
				if got := Histogram(keys, k); !slices.Equal(got, want) {
					t.Fatalf("p=%d n=%d: Histogram mismatch", p, n)
				}
			}
		})
	}
}

// TestConformanceCollect checks the chunk-ordered list primitive against a
// sequential concatenation: each index runs once in a grain-aligned chunk,
// a chunk may emit nothing (nil) or several entries per index, and the
// result is the chunks' lists in chunk order. It also checks the
// ForRangeCancel contract Collect inherits: a pre-fired token runs no
// chunk, a mid-loop fire drains, and a body panic propagates.
func TestConformanceCollect(t *testing.T) {
	// emit is the per-index body: nothing for indices in a 1-in-4 class
	// (whole chunks come back nil at grain 1), the index itself otherwise,
	// and a second copy of every seventh index.
	emit := func(out []uint32, i int) []uint32 {
		switch {
		case i%4 == 3:
		case i%7 == 0:
			out = append(out, uint32(i), uint32(i))
		default:
			out = append(out, uint32(i))
		}
		return out
	}
	for _, p := range []int{1, 2, 4} {
		withWorkers(t, p, func() {
			for _, grain := range []int{0, 1, 16} {
				sizes := []int{0, 1, grain - 1, grain, grain + 1, 100000}
				slices.Sort(sizes)
				for _, n := range slices.Compact(sizes) {
					if n < 0 {
						continue
					}
					name := fmt.Sprintf("p=%d/n=%d/g=%d", p, n, grain)
					var want []uint32
					for i := 0; i < n; i++ {
						want = emit(want, i)
					}
					visits := make([]int32, n)
					got := Collect(nil, n, grain, func(lo, hi int, out []uint32) []uint32 {
						if lo < 0 || hi > n || lo >= hi {
							panic(fmt.Sprintf("%s: bad chunk [%d,%d)", name, lo, hi))
						}
						if grain > 0 && (lo%grain != 0 || hi != min(lo+grain, n)) {
							panic(fmt.Sprintf("%s: chunk [%d,%d) not grain-aligned", name, lo, hi))
						}
						if out != nil {
							panic(fmt.Sprintf("%s: chunk [%d,%d) handed a non-nil list", name, lo, hi))
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&visits[i], 1)
							out = emit(out, i)
						}
						return out
					})
					for i, v := range visits {
						if v != 1 {
							t.Fatalf("%s: index %d visited %d times", name, i, v)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: got %d entries, want the %d of the sequential concatenation", name, len(got), len(want))
					}
				}
			}

			c := NewCancel()
			c.Fire(nil)
			var ran atomic.Int64
			if got := Collect(c, 100000, 16, func(lo, hi int, out []uint32) []uint32 {
				ran.Add(1)
				return append(out, uint32(lo))
			}); got != nil || ran.Load() != 0 {
				t.Fatalf("p=%d: pre-fired token ran %d chunks and returned %d entries", p, ran.Load(), len(got))
			}

			// Mid-loop fire: the drained chunks emit nothing, so the result
			// is the emitted lists of the chunks that ran, still in order.
			const n, grain = 1 << 18, 64
			c = NewCancel()
			ran.Store(0)
			got := Collect(c, n, grain, func(lo, hi int, out []uint32) []uint32 {
				if ran.Add(1) >= 8 {
					c.Fire(nil)
				}
				return append(out, uint32(lo/grain))
			})
			if !c.Canceled() {
				t.Fatalf("p=%d: token did not fire", p)
			}
			if len(got) != int(ran.Load()) || int64(len(got)) > int64(8+p) {
				t.Fatalf("p=%d: %d chunks ran, %d entries came back (bound %d): drain did not bound the work",
					p, ran.Load(), len(got), 8+p)
			}
			if !slices.IsSorted(got) {
				t.Fatalf("p=%d: drained result not in chunk order: %v", p, got)
			}

			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("p=%d: a chunk's panic did not propagate", p)
					}
				}()
				Collect(nil, 100000, 16, func(lo, hi int, out []uint32) []uint32 {
					if lo == 50000 {
						panic("boom")
					}
					return out
				})
			}()
		})
	}
}

// TestConformanceConcat checks the list join behind Collect and the VGC
// operator's frontier lists against a sequential append: any number of
// lists, empty ones among them, appended after what dst already holds,
// below SeqCutoff entries (inline) and above it (parallel copy).
func TestConformanceConcat(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		withWorkers(t, p, func() {
			for _, n := range []int{0, 1, 3, 8} {
				for _, size := range []int{0, 5, SeqCutoff} {
					for _, prefix := range []int{0, 3} {
						lists := make([][]uint32, n)
						for i := range lists {
							if i%3 == 1 {
								continue // an empty list
							}
							for j := 0; j < size+i; j++ {
								lists[i] = append(lists[i], uint32(i<<20|j))
							}
						}
						dst := make([]uint32, prefix, prefix+1)
						for i := range dst {
							dst[i] = ^uint32(i)
						}
						want := slices.Clone(dst)
						for _, l := range lists {
							want = append(want, l...)
						}
						got := Concat(dst, n, func(i int) []uint32 { return lists[i] })
						if !slices.Equal(got, want) {
							t.Fatalf("p=%d n=%d size=%d prefix=%d: got %d entries, want the %d of the sequential append", p, n, size, prefix, len(got), len(want))
						}
					}
				}
			}
		})
	}
}
