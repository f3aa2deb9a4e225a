package parallel

// Histogram counts occurrences of each key in [0, k). Keys outside the
// range panic. Per-chunk local histograms are merged, so the work is
// O(n + k·chunks) with no atomics on the hot path.
func Histogram(keys []uint32, k int) []int64 {
	n := len(keys)
	out := make([]int64, k)
	if n == 0 {
		return out
	}
	p := Workers()
	grain := defaultGrain(n, p)
	chunks := (n + grain - 1) / grain
	if chunks <= 1 || k > 1<<16 {
		// For huge key ranges, per-chunk copies would dominate; fall back
		// to a sequential count.
		for _, key := range keys {
			out[key]++
		}
		return out
	}
	local := make([]int64, chunks*k)
	ForRange(n, grain, func(lo, hi int) {
		h := local[(lo/grain)*k : (lo/grain)*k+k]
		for i := lo; i < hi; i++ {
			h[keys[i]]++
		}
	})
	For(k, 0, func(key int) {
		var sum int64
		for c := 0; c < chunks; c++ {
			sum += local[c*k+key]
		}
		out[key] = sum
	})
	return out
}

// RandomPermutation returns a deterministic pseudo-random permutation of
// [0, n): indices sorted by a hash of (seed, i). Ties are impossible for
// distinct i because the comparison falls back to the index.
func RandomPermutation(n int, seed uint64) []uint32 {
	perm := Tabulate(n, func(i int) uint32 { return uint32(i) })
	SortFunc(perm, func(a, b uint32) bool {
		ha := permHash(seed, a)
		hb := permHash(seed, b)
		if ha != hb {
			return ha < hb
		}
		return a < b
	})
	return perm
}

func permHash(seed uint64, v uint32) uint64 {
	x := seed + uint64(v)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
