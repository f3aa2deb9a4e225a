package parallel

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func BenchmarkFor(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			dst := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				For(n, 0, func(j int) { dst[j] = int64(j) })
			}
		})
	}
}

func BenchmarkScan(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]int64, n)
			for i := range src {
				src[i] = int64(i & 7)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Scan(src)
			}
		})
	}
}

func BenchmarkPackIndex(b *testing.B) {
	n := 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackIndex(n, func(j int) bool { return j&7 == 0 })
	}
}

func BenchmarkSortFunc(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	n := 1 << 18
	orig := make([]uint64, n)
	for i := range orig {
		orig[i] = rng.Uint64()
	}
	s := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s, orig)
		SortFunc(s, func(a, c uint64) bool { return a < c })
	}
}

func BenchmarkHistogram(b *testing.B) {
	n := 1 << 20
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(i % 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Histogram(keys, 256)
	}
}

// BenchmarkLaunchOverhead measures the fixed cost of launching one small
// parallel loop at different worker-team sizes — the small-frontier regime
// of large-diameter graphs, where a round's loop has little work and the
// launch cost itself decides throughput. With the persistent pool the cost
// must stay roughly flat in p (publish + wake, no spawns); the old
// spawn-per-launch runtime grew linearly in p.
func BenchmarkLaunchOverhead(b *testing.B) {
	const n = 256 // small loop: a few chunks, dominated by launch cost
	for _, p := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			defer SetWorkers(SetWorkers(p))
			dst := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				For(n, 16, func(j int) { dst[j]++ })
			}
		})
	}
}

// BenchmarkDoOverhead measures the fixed cost of a binary fork-join.
func BenchmarkDoOverhead(b *testing.B) {
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			defer SetWorkers(SetWorkers(p))
			var x, y int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Do(func() { x++ }, func() { y++ })
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	case n >= 1<<16:
		return "64K"
	default:
		return "1K"
	}
}
