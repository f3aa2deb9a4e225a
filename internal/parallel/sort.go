package parallel

import "sort"

// SortFunc sorts s with a parallel merge sort: the slice is cut into runs
// that are sorted independently (stdlib pdqsort) and then merged pairwise,
// with each merge itself split in two around a binary-searched pivot.
// less must be a strict weak ordering.
func SortFunc[T any](s []T, less func(a, b T) bool) {
	n := len(s)
	p := Workers()
	if n < 1<<12 || p == 1 {
		sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
		return
	}
	runs := 1
	for runs < 4*p {
		runs *= 2
	}
	runLen := (n + runs - 1) / runs
	For(runs, 1, func(r int) {
		lo := r * runLen
		if lo >= n {
			return
		}
		hi := lo + runLen
		if hi > n {
			hi = n
		}
		part := s[lo:hi]
		sort.Slice(part, func(i, j int) bool { return less(part[i], part[j]) })
	})
	buf := make([]T, n)
	src, dst := s, buf
	for width := runLen; width < n; width *= 2 {
		nPairs := (n + 2*width - 1) / (2 * width)
		For(nPairs, 1, func(pr int) {
			lo := pr * 2 * width
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		})
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		Copy(s, src)
	}
}

func mergeInto[T any](out, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}
