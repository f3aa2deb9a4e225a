package parallel

import (
	"math/rand/v2"
	"testing"
)

// withWorkers runs f with the worker count forced to p (goroutines still
// multiplex onto however many cores exist; the point is exercising the
// parallel code paths that a 1-core default would short-circuit).
func withWorkers(t *testing.T, p int, f func()) {
	t.Helper()
	old := SetWorkers(p)
	defer SetWorkers(old)
	f()
}

func TestSortFuncParallelPath(t *testing.T) {
	withWorkers(t, 8, func() {
		rng := rand.New(rand.NewPCG(1, 1))
		for _, n := range []int{1 << 12, 1<<14 + 3, 1 << 15} {
			s := make([]uint64, n)
			for i := range s {
				s[i] = rng.Uint64N(10000)
			}
			SortFunc(s, func(a, b uint64) bool { return a < b })
			for i := 1; i < n; i++ {
				if s[i-1] > s[i] {
					t.Fatalf("n=%d: not sorted at %d", n, i)
				}
			}
		}
		// Stability is not promised, but sortedness with all-equal keys
		// exercises the merge fully.
		eq := make([]uint64, 1<<13)
		SortFunc(eq, func(a, b uint64) bool { return a < b })
	})
}

func TestScanPackParallelPath(t *testing.T) {
	withWorkers(t, 8, func() {
		n := 1 << 16
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(i % 7)
		}
		want := make([]int64, n)
		var acc int64
		for i := range src {
			want[i] = acc
			acc += src[i]
		}
		if total := Scan(src); total != acc {
			t.Fatalf("total %d want %d", total, acc)
		}
		for i := range src {
			if src[i] != want[i] {
				t.Fatalf("scan[%d]", i)
			}
		}
		idx := PackIndex(n, func(i int) bool { return i%13 == 0 })
		if len(idx) != (n+12)/13 {
			t.Fatalf("pack len %d", len(idx))
		}
	})
}

func TestHistogramParallelPath(t *testing.T) {
	withWorkers(t, 8, func() {
		keys := make([]uint32, 1<<16)
		for i := range keys {
			keys[i] = uint32(i % 128)
		}
		h := Histogram(keys, 128)
		for k := 0; k < 128; k++ {
			if h[k] != 512 {
				t.Fatalf("hist[%d] = %d", k, h[k])
			}
		}
	})
}

func TestReduceParallelPath(t *testing.T) {
	withWorkers(t, 16, func() {
		n := 1 << 17
		got := Sum(n, func(i int) int64 { return 1 })
		if got != int64(n) {
			t.Fatalf("sum %d", got)
		}
	})
}
