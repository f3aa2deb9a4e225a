package main

import (
	"math"
	"sort"
)

// metric is one reported number. Samples is how many observations stand
// behind Value (1 for counters and single-shot cells).
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: fewer, and the "percentile" is one or two outliers.
const tailMinBeyond = 10

// tailPercentile reports the highest percentile of xs, no higher than
// want (0 < want < 1), that still has at least tailMinBeyond samples
// beyond it. It returns the value and the percentile actually used;
// with too few samples for any tail it falls back to the median.
func tailPercentile(xs []float64, want float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(want*float64(n))) - 1
	if most := n - 1 - tailMinBeyond; idx > most {
		idx = most
	}
	if idx < n/2 {
		return median(xs), 0.5
	}
	return s[idx], float64(idx+1) / float64(n)
}

// quartiles returns the first and third quartile by the same exclusive
// method as Python's statistics.quantiles(xs, n=4), so -agree reports the
// spread the acceptance procedure computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
