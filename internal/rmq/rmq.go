// Package rmq provides a static range-min/max structure over a pair of
// uint32 arrays with O(n) space and O(1)-ish queries: a block
// decomposition (per-block prefix/suffix aggregates plus a sparse table
// over block aggregates; in-block partial ranges fall back to a bounded
// scan). FAST-BCC uses it to evaluate subtree low/high values — subtrees
// are contiguous preorder ranges on the Euler tour — within the paper's
// O(n) auxiliary-space budget (a full sparse table would be O(n log n)).
// One query answers both the minimum of one array and the maximum of the
// other, because the fence test needs both for every range it asks about:
// each table entry holds the two aggregates side by side, so the pair
// costs the cache lines of one lookup.
package rmq

import (
	"math/bits"

	"pasgal/internal/parallel"
)

const blockShift = 5 // 32-element blocks
const blockSize = 1 << blockShift

// span is the aggregate of a range: the minimum of lo and the maximum of
// hi over it.
type span struct{ lo, hi uint32 }

func (a span) join(b span) span { return span{min(a.lo, b.lo), max(a.hi, b.hi)} }

// MinMax answers (min lo[l..h], max hi[l..h]) over fixed arrays.
type MinMax struct {
	lo, hi  []uint32
	prefix  []span // per-block running aggregate from block start
	suffix  []span // per-block running aggregate to block end
	table   []span // sparse table over block aggregates, row-major
	nblocks int
}

// New builds the structure over lo and hi, which must have the same
// length and must not be modified afterwards.
func New(lo, hi []uint32) *MinMax {
	if len(lo) != len(hi) {
		panic("rmq: lo and hi differ in length")
	}
	n := len(lo)
	nblocks := (n + blockSize - 1) / blockSize
	r := &MinMax{
		lo:      lo,
		hi:      hi,
		prefix:  make([]span, n),
		suffix:  make([]span, n),
		nblocks: nblocks,
	}
	parallel.For(nblocks, 4, func(b int) {
		first := b * blockSize
		last := min(first+blockSize, n) - 1
		acc := span{lo[first], hi[first]}
		for i := first; i <= last; i++ {
			acc = acc.join(span{lo[i], hi[i]})
			r.prefix[i] = acc
		}
		acc = span{lo[last], hi[last]}
		for i := last; i >= first; i-- {
			acc = acc.join(span{lo[i], hi[i]})
			r.suffix[i] = acc
		}
	})
	if nblocks > 0 {
		rows := bits.Len(uint(nblocks)) // log2(nblocks)+1
		r.table = make([]span, rows*nblocks)
		parallel.For(nblocks, 0, func(b int) {
			r.table[b] = r.suffix[b*blockSize] // whole-block aggregate
		})
		for row := 1; row < rows; row++ {
			width := 1 << row
			prev := r.table[(row-1)*nblocks:]
			cur := r.table[row*nblocks:]
			parallel.For(nblocks, 0, func(b int) {
				cur[b] = prev[b] // a span running past the end is never queried
				if b+width <= nblocks {
					cur[b] = prev[b].join(prev[b+width/2])
				}
			})
		}
	}
	return r
}

// Query returns min lo[l..h] and max hi[l..h], inclusive. l <= h required.
func (r *MinMax) Query(l, h int) (lo, hi uint32) {
	if l > h || l < 0 || h >= len(r.lo) {
		panic("rmq: query out of range")
	}
	bl, bh := l>>blockShift, h>>blockShift
	if bl == bh {
		// In-block partial range: bounded scan (<= 32 elements).
		lo, hi = r.lo[l], r.hi[l]
		for i := l + 1; i <= h; i++ {
			lo, hi = min(lo, r.lo[i]), max(hi, r.hi[i])
		}
		return lo, hi
	}
	acc := r.suffix[l].join(r.prefix[h])
	if bh-bl >= 2 {
		// Whole blocks bl+1 .. bh-1 via the sparse table.
		a, b := bl+1, bh-1
		k := bits.Len(uint(b-a+1)) - 1
		row := r.table[k*r.nblocks:]
		acc = acc.join(row[a]).join(row[b-(1<<k)+1])
	}
	return acc.lo, acc.hi
}
