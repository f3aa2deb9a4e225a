// Package rmq provides a static range-min/max structure over a uint32
// array with O(n) space and O(1)-ish queries: a block decomposition
// (per-block prefix/suffix aggregates plus a sparse table over block
// aggregates; in-block partial ranges fall back to a bounded scan).
// FAST-BCC uses it to evaluate subtree low/high values — subtrees are
// contiguous preorder ranges on the Euler tour — within the paper's O(n)
// auxiliary-space budget (a full sparse table would be O(n log n)).
package rmq

import (
	"math/bits"

	"pasgal/internal/parallel"
)

const blockShift = 5 // 32-element blocks
const blockSize = 1 << blockShift

// RMQ answers combine-queries (min or max) over ranges of a fixed array.
type RMQ struct {
	vals    []uint32
	prefix  []uint32 // per-block running aggregate from block start
	suffix  []uint32 // per-block running aggregate to block end
	table   []uint32 // sparse table over block aggregates, row-major
	rows    int
	nblocks int
	combine func(a, b uint32) uint32
}

// NewMin builds a range-minimum structure over vals (which must not be
// modified afterwards).
func NewMin(vals []uint32) *RMQ {
	return build(vals, func(a, b uint32) uint32 {
		if a < b {
			return a
		}
		return b
	})
}

// NewMax builds a range-maximum structure over vals.
func NewMax(vals []uint32) *RMQ {
	return build(vals, func(a, b uint32) uint32 {
		if a > b {
			return a
		}
		return b
	})
}

func build(vals []uint32, combine func(a, b uint32) uint32) *RMQ {
	n := len(vals)
	nblocks := (n + blockSize - 1) / blockSize
	r := &RMQ{
		vals:    vals,
		prefix:  make([]uint32, n),
		suffix:  make([]uint32, n),
		nblocks: nblocks,
		combine: combine,
	}
	parallel.For(nblocks, 4, func(b int) {
		lo := b * blockSize
		hi := min(lo+blockSize, n)
		acc := vals[lo]
		for i := lo; i < hi; i++ {
			acc = combine(acc, vals[i])
			r.prefix[i] = acc
		}
		acc = vals[hi-1]
		for i := hi - 1; i >= lo; i-- {
			acc = combine(acc, vals[i])
			r.suffix[i] = acc
		}
	})
	if nblocks > 0 {
		rows := bits.Len(uint(nblocks)) // log2(nblocks)+1
		r.rows = rows
		r.table = make([]uint32, rows*nblocks)
		parallel.For(nblocks, 0, func(b int) {
			r.table[b] = r.suffix[b*blockSize] // whole-block aggregate
		})
		for row := 1; row < rows; row++ {
			span := 1 << row
			prev := r.table[(row-1)*nblocks:]
			cur := r.table[row*nblocks:]
			parallel.For(nblocks, 0, func(b int) {
				cur[b] = prev[b] // a span running past the end is never queried
				if b+span <= nblocks {
					cur[b] = combine(prev[b], prev[b+span/2])
				}
			})
		}
	}
	return r
}

// Query returns the aggregate of vals[lo..hi] inclusive. lo <= hi required.
func (r *RMQ) Query(lo, hi int) uint32 {
	if lo > hi || lo < 0 || hi >= len(r.vals) {
		panic("rmq: query out of range")
	}
	bl, bh := lo>>blockShift, hi>>blockShift
	if bl == bh {
		// In-block partial range: bounded scan (<= 32 elements).
		acc := r.vals[lo]
		for i := lo + 1; i <= hi; i++ {
			acc = r.combine(acc, r.vals[i])
		}
		return acc
	}
	acc := r.combine(r.suffix[lo], r.prefix[hi])
	if bh-bl >= 2 {
		// Whole blocks bl+1 .. bh-1 via the sparse table.
		a, b := bl+1, bh-1
		k := bits.Len(uint(b-a+1)) - 1
		row := r.table[k*r.nblocks:]
		acc = r.combine(acc, r.combine(row[a], row[b-(1<<k)+1]))
	}
	return acc
}
