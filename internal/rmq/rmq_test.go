package rmq

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func bruteMinMax(lo, hi []uint32, l, h int) (uint32, uint32) {
	mn, mx := lo[l], hi[l]
	for i := l + 1; i <= h; i++ {
		mn, mx = min(mn, lo[i]), max(mx, hi[i])
	}
	return mn, mx
}

// fills are the value patterns the exhaustive sweep runs: random, and
// monotone in both directions so a range's extremes sit at its ends.
var fills = []struct {
	name string
	gen  func(rng *rand.Rand, n int) (lo, hi []uint32)
}{
	{"random", func(rng *rand.Rand, n int) ([]uint32, []uint32) {
		lo, hi := make([]uint32, n), make([]uint32, n)
		for i := range lo {
			lo[i], hi[i] = rng.Uint32N(1000), rng.Uint32N(1000)
		}
		return lo, hi
	}},
	{"ascending", func(_ *rand.Rand, n int) ([]uint32, []uint32) {
		lo, hi := make([]uint32, n), make([]uint32, n)
		for i := range lo {
			lo[i], hi[i] = uint32(i), uint32(i+1)
		}
		return lo, hi
	}},
	{"descending", func(_ *rand.Rand, n int) ([]uint32, []uint32) {
		lo, hi := make([]uint32, n), make([]uint32, n)
		for i := range lo {
			lo[i], hi[i] = uint32(n-i), uint32(2*n-i)
		}
		return lo, hi
	}},
	{"opposed", func(_ *rand.Rand, n int) ([]uint32, []uint32) {
		lo, hi := make([]uint32, n), make([]uint32, n)
		for i := range lo {
			lo[i], hi[i] = uint32(n-i), uint32(i)
		}
		return lo, hi
	}},
}

// TestRMQExhaustiveSmall checks every (l, h) at sizes on both sides of the
// 32-element block and of the sparse table's row boundaries.
func TestRMQExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, f := range fills {
		for _, n := range []int{1, 31, 32, 33, 64, 65, 1000} {
			lo, hi := f.gen(rng, n)
			r := New(lo, hi)
			for l := 0; l < n; l++ {
				mn, mx := lo[l], hi[l]
				for h := l; h < n; h++ {
					mn, mx = min(mn, lo[h]), max(mx, hi[h])
					if gl, gh := r.Query(l, h); gl != mn || gh != mx {
						t.Fatalf("%s n=%d [%d,%d] = (%d,%d), want (%d,%d)", f.name, n, l, h, gl, gh, mn, mx)
					}
				}
			}
		}
	}
}

func TestRMQRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	n := 100000
	lo, hi := make([]uint32, n), make([]uint32, n)
	for i := range lo {
		lo[i], hi[i] = rng.Uint32(), rng.Uint32()
	}
	r := New(lo, hi)
	for q := 0; q < 2000; q++ {
		l := rng.IntN(n)
		h := l + rng.IntN(n-l)
		wl, wh := bruteMinMax(lo, hi, l, h)
		if gl, gh := r.Query(l, h); gl != wl || gh != wh {
			t.Fatalf("[%d,%d] = (%d,%d), want (%d,%d)", l, h, gl, gh, wl, wh)
		}
	}
}

func TestRMQQuick(t *testing.T) {
	f := func(raw []uint32, a, b uint16) bool {
		if len(raw) == 0 {
			return true
		}
		l := int(a) % len(raw)
		h := int(b) % len(raw)
		if l > h {
			l, h = h, l
		}
		rev := make([]uint32, len(raw))
		for i, v := range raw {
			rev[len(raw)-1-i] = v
		}
		gl, gh := New(raw, rev).Query(l, h)
		wl, wh := bruteMinMax(raw, rev, l, h)
		return gl == wl && gh == wh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRMQPanicsOutOfRange(t *testing.T) {
	r := New([]uint32{1, 2, 3}, []uint32{4, 5, 6})
	for _, q := range [][2]int{{2, 1}, {-1, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for query %v", q)
				}
			}()
			r.Query(q[0], q[1])
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for arrays of different lengths")
		}
	}()
	New([]uint32{1}, nil)
}

// TestRMQStructuredTable sweeps adversarial value patterns that random
// fills never produce — plateaus of duplicates, sawtooth block boundaries,
// alternating extremes — at the query extremes (point, prefix, suffix,
// full range).
func TestRMQStructuredTable(t *testing.T) {
	patterns := []struct {
		name string
		gen  func(i int) uint32
	}{
		{"constant", func(int) uint32 { return 7 }},
		{"sawtooth", func(i int) uint32 { return uint32(i % 13) }},
		{"extremes", func(i int) uint32 {
			if i%2 == 0 {
				return 0
			}
			return ^uint32(0)
		}},
	}
	for _, p := range patterns {
		for _, n := range []int{1, 2, 33, 64, 129} {
			lo, hi := make([]uint32, n), make([]uint32, n)
			for i := range lo {
				lo[i], hi[i] = p.gen(i), p.gen(i+1)
			}
			r := New(lo, hi)
			for _, q := range [][2]int{{0, 0}, {n - 1, n - 1}, {0, n - 1}, {0, n / 2}, {n / 2, n - 1}} {
				wl, wh := bruteMinMax(lo, hi, q[0], q[1])
				if gl, gh := r.Query(q[0], q[1]); gl != wl || gh != wh {
					t.Fatalf("%s n=%d %v = (%d,%d), want (%d,%d)", p.name, n, q, gl, gh, wl, wh)
				}
			}
		}
	}
}
