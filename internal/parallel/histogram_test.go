package parallel

import (
	"math/rand/v2"
	"testing"
)

func TestHistogram(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 100, 100000} {
		k := 64
		keys := make([]uint32, n)
		want := make([]int64, k)
		for i := range keys {
			keys[i] = rng.Uint32N(uint32(k))
			want[keys[i]]++
		}
		got := Histogram(keys, k)
		for key := 0; key < k; key++ {
			if got[key] != want[key] {
				t.Fatalf("n=%d: hist[%d] = %d, want %d", n, key, got[key], want[key])
			}
		}
	}
}

func TestHistogramLargeKeyRange(t *testing.T) {
	// k > 2^16 takes the sequential fallback.
	keys := []uint32{0, 99999, 99999, 5}
	got := Histogram(keys, 100000)
	if got[99999] != 2 || got[0] != 1 || got[5] != 1 {
		t.Fatal("large-range histogram wrong")
	}
}

func TestRandomPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 50000} {
		perm := RandomPermutation(n, 42)
		seen := make([]bool, n)
		for _, v := range perm {
			if int(v) >= n || seen[v] {
				t.Fatalf("n=%d: not a permutation", n)
			}
			seen[v] = true
		}
		// Deterministic.
		again := RandomPermutation(n, 42)
		for i := range perm {
			if perm[i] != again[i] {
				t.Fatal("not deterministic")
			}
		}
	}
	// Different seeds give different permutations (overwhelmingly).
	a := RandomPermutation(1000, 1)
	b := RandomPermutation(1000, 2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("seeds too correlated: %d fixed points", same)
	}
	// Identity is vanishingly unlikely: check it actually shuffles.
	fixed := 0
	for i, v := range a {
		if int(v) == i {
			fixed++
		}
	}
	if fixed > 100 {
		t.Fatalf("barely shuffled: %d fixed points", fixed)
	}
}
