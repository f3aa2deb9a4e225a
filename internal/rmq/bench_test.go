package rmq

import (
	"math/rand/v2"
	"testing"
)

func randomPair(rng *rand.Rand, n int) (lo, hi []uint32) {
	lo, hi = make([]uint32, n), make([]uint32, n)
	for i := range lo {
		lo[i], hi[i] = rng.Uint32(), rng.Uint32()
	}
	return lo, hi
}

func BenchmarkBuild(b *testing.B) {
	lo, hi := randomPair(rand.New(rand.NewPCG(1, 1)), 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(lo, hi)
	}
}

func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	n := 1 << 20
	r := New(randomPair(rng, n))
	// Pre-draw query ranges so the RNG is out of the hot loop.
	qs := make([][2]int, 4096)
	for i := range qs {
		lo := rng.IntN(n)
		qs[i] = [2]int{lo, lo + rng.IntN(n-lo)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i&4095]
		r.Query(q[0], q[1])
	}
}
