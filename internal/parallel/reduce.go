package parallel

// Number constrains the primitive numeric types used by the reduction and
// scan helpers.
type Number interface {
	~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64 | ~float32 | ~float64
}

// Reduce combines f(i) for i in [0,n) with the associative function combine,
// starting from the identity element id.
func Reduce[T any](n, grain int, id T, f func(i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	p := Workers()
	if grain <= 0 {
		grain = defaultGrain(n, p)
	}
	chunks := (n + grain - 1) / grain
	if chunks <= 1 {
		acc := id
		for i := 0; i < n; i++ {
			acc = combine(acc, f(i))
		}
		return acc
	}
	partial := make([]T, chunks)
	ForRange(n, grain, func(lo, hi int) {
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, f(i))
		}
		partial[lo/grain] = acc
	})
	acc := id
	for _, v := range partial {
		acc = combine(acc, v)
	}
	return acc
}

// Sum returns the sum of f(i) over [0,n).
func Sum[T Number](n int, f func(i int) T) T {
	return Reduce(n, 0, T(0), f, func(a, b T) T { return a + b })
}

// Count returns how many i in [0,n) satisfy pred.
func Count(n int, pred func(i int) bool) int {
	return Sum(n, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// MaxIndex returns the index of a maximal f(i) over [0,n) (the smallest such
// index among chunk winners; ties across chunks resolve to the earliest
// chunk). n must be > 0.
func MaxIndex[T Number](n int, f func(i int) T) int {
	type iv struct {
		i int
		v T
	}
	best := Reduce(n, 0, iv{-1, 0}, func(i int) iv {
		return iv{i, f(i)}
	}, func(a, b iv) iv {
		if a.i < 0 {
			return b
		}
		if b.i < 0 {
			return a
		}
		if b.v > a.v || (b.v == a.v && b.i < a.i) {
			return b
		}
		return a
	})
	return best.i
}

// Max returns the maximum of f(i) over [0,n); n must be > 0.
func Max[T Number](n int, f func(i int) T) T {
	first := f(0)
	return Reduce(n, 0, first, func(i int) T { return f(i) },
		func(a, b T) T {
			if b > a {
				return b
			}
			return a
		})
}
