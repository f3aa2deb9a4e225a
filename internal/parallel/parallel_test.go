package parallel

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1023, 4096, 100001} {
		seen := make([]atomic.Int32, max(n, 1))
		For(n, 0, func(i int) { seen[i].Add(1) })
		for i := 0; i < n; i++ {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForRangeChunksDisjointAndComplete(t *testing.T) {
	n := 54321
	seen := make([]atomic.Int32, n)
	ForRange(n, 17, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, seen[i].Load())
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	For(10000, 1, func(i int) {
		if i == 777 {
			panic("boom")
		}
	})
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all functions")
	}
	Do() // no-op
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("single-function Do did not run")
	}
}

func TestSetWorkers(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0) // resets to GOMAXPROCS
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
	SetWorkers(old)
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000, 65537} {
		got := Sum(n, func(i int) int64 { return int64(i) })
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("Sum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCount(t *testing.T) {
	n := 100000
	got := Count(n, func(i int) bool { return i%3 == 0 })
	want := (n + 2) / 3
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestMinMax(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := make([]int64, 9999)
	for i := range vals {
		vals[i] = rng.Int64N(1 << 40)
	}
	vals[8888] = 1 << 41
	if got := Max(len(vals), func(i int) int64 { return vals[i] }); got != 1<<41 {
		t.Fatalf("Max = %d", got)
	}
	if got := MaxIndex(len(vals), func(i int) int64 { return vals[i] }); got != 8888 {
		t.Fatalf("MaxIndex = %d", got)
	}
}

func TestMaxIndexTiesPickEarliest(t *testing.T) {
	vals := []int{3, 9, 1, 9, 9}
	if got := MaxIndex(len(vals), func(i int) int { return vals[i] }); got != 1 {
		t.Fatalf("MaxIndex = %d, want 1", got)
	}
}

func TestScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 2, 100, 12345, 1 << 17} {
		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int64N(100) - 50
		}
		want := make([]int64, n)
		var acc, wantTotal int64
		for i := range src {
			want[i] = acc
			acc += src[i]
		}
		wantTotal = acc
		got := Scan(src)
		if got != wantTotal {
			t.Fatalf("n=%d: Scan total = %d, want %d", n, got, wantTotal)
		}
		for i := range src {
			if src[i] != want[i] {
				t.Fatalf("n=%d: Scan[%d] = %d, want %d", n, i, src[i], want[i])
			}
		}
	}
}

func TestScanInclusive(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{0, 1, 2, 1000, 1 << 16} {
		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int64N(10)
		}
		want := make([]int64, n)
		var acc int64
		for i := range src {
			acc += src[i]
			want[i] = acc
		}
		total := ScanInclusive(src)
		if n > 0 && total != want[n-1] {
			t.Fatalf("n=%d: total=%d want %d", n, total, want[n-1])
		}
		for i := range src {
			if src[i] != want[i] {
				t.Fatalf("n=%d: [%d]=%d want %d", n, i, src[i], want[i])
			}
		}
	}
}

func TestPackIndex(t *testing.T) {
	n := 100001
	got := PackIndex(n, func(i int) bool { return i%7 == 0 })
	for k, v := range got {
		if int(v) != k*7 {
			t.Fatalf("PackIndex[%d] = %d, want %d", k, v, k*7)
		}
	}
	if len(got) != (n+6)/7 {
		t.Fatalf("len = %d", len(got))
	}
	if PackIndex(0, func(int) bool { return true }) != nil {
		t.Fatal("PackIndex(0) should be nil")
	}
}

func TestPack(t *testing.T) {
	src := make([]int, 50000)
	for i := range src {
		src[i] = i * 2
	}
	got := Pack(src, func(i int) bool { return i%10 == 3 })
	if len(got) != 5000 {
		t.Fatalf("len = %d", len(got))
	}
	for k, v := range got {
		if v != (k*10+3)*2 {
			t.Fatalf("Pack[%d] = %d", k, v)
		}
	}
}

func TestFillCopyTabulate(t *testing.T) {
	dst := make([]int, 33333)
	Fill(dst, 42)
	for i, v := range dst {
		if v != 42 {
			t.Fatalf("Fill[%d] = %d", i, v)
		}
	}
	src := Tabulate(33333, func(i int) int { return i * 3 })
	out := make([]int, len(src))
	Copy(out, src)
	for i := range out {
		if out[i] != i*3 {
			t.Fatalf("Copy/Tabulate[%d] = %d", i, out[i])
		}
	}
}

func TestSortFunc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{0, 1, 2, 100, 5000, 1 << 15, 1<<15 + 7} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rng.Uint64N(1000) // many duplicates
		}
		SortFunc(s, func(a, b uint64) bool { return a < b })
		for i := 1; i < n; i++ {
			if s[i-1] > s[i] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

func TestSchedStats(t *testing.T) {
	// Force a multi-participant launch even on a single-core machine: with
	// p=1 the loop has one participant and publishes no helper slots.
	defer SetWorkers(SetWorkers(4))
	ResetSchedStats()
	For(100000, 64, func(int) {})
	st := SchedStats()
	if st.Loops < 1 || st.Forks < 1 {
		t.Fatalf("expected scheduling activity, got %+v", st)
	}
	For(10, 64, func(int) {})
	if got := SchedStats().Inline; got < 1 {
		t.Fatalf("expected inline loop, got %d", got)
	}
	ResetSchedStats()
	if st := SchedStats(); st != (SchedCounts{}) {
		t.Fatalf("reset failed: %+v", st)
	}
}
