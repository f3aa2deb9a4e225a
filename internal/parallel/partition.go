package parallel

// This file holds the contention-free partitioning primitive: the
// count–scan–scatter pattern over payload-carrying records and arbitrary
// key ranges. PartitionByKey is stable and its hot loops contain no
// atomic operations: every chunk counts into its own histogram slice, the
// histograms are combined with one exclusive Scan in column-major
// (key-major) order, and the scatter bumps owner-local plain-store
// cursors. Stability falls out of the column-major
// scan: for equal keys, earlier chunks receive earlier output slots, and
// within a chunk the scatter walks the input left to right.

// SeqCutoff is the input size below which the partitioning primitive runs
// a plain sequential counting sort: below it the per-chunk histograms and
// extra parallel launches cost more than they save. It is exported so a
// caller that filters a slice right before partitioning it (the stepping
// SSSP's phase boundary) runs both passes inline under the same size.
const SeqCutoff = 1 << 12

// scanChunkCursors turns per-chunk key counts (row-major: counts[c*k+d] is
// chunk c's count of key d) into per-chunk scatter cursors: the start slot
// for key d in chunk c becomes the total count of smaller keys plus the
// key-d counts of earlier chunks. The exclusive prefix sum runs over the
// column-major (key-major) transposition of the counts, which is exactly
// what makes the downstream scatter stable. col is scratch of the same
// length as counts. If offsets is non-nil (length k+1) it receives the key
// group boundaries. Returns the total count.
func scanChunkCursors(counts, col []int64, chunks, k int, offsets []int64) int64 {
	For(k, 0, func(d int) {
		for c := 0; c < chunks; c++ {
			col[d*chunks+c] = counts[c*k+d]
		}
	})
	total := Scan(col)
	For(k, 0, func(d int) {
		for c := 0; c < chunks; c++ {
			counts[c*k+d] = col[d*chunks+c]
		}
	})
	if offsets != nil {
		For(k, 0, func(d int) { offsets[d] = col[d*chunks] })
		offsets[k] = total
	}
	return total
}

// histogramGrain returns the chunk size and count of a count–scan–scatter
// pass over n records. Each chunk owns a histogram row, so more chunks than
// load balancing needs just inflate the counts matrix and the scan over
// it; eight chunks per worker keeps stealing effective while the matrix
// stays cache-resident.
func histogramGrain(n int) (grain, chunks int) {
	p := Workers()
	grain = defaultGrain(n, p)
	if maxChunks := 8 * p; (n+grain-1)/grain > maxChunks {
		grain = (n + maxChunks - 1) / maxChunks
	}
	return grain, (n + grain - 1) / grain
}

// PartitionByKey stably partitions src into dst grouped by key (values in
// [0,k)): records with smaller keys come first, and records with equal keys
// keep their input order. It returns the k+1 group offsets
// (dst[offsets[d]:offsets[d+1]] holds the key-d records). dst must have the
// same length as src and must not overlap it. Keys outside [0,k) panic.
//
// This is one count–scan–scatter pass: per-chunk histograms, one exclusive
// Scan over the column-major counts, then a scatter through owner-local
// cursors — no atomic operations anywhere on the hot path, so throughput is
// independent of how skewed the key distribution is.
func PartitionByKey[T any](dst, src []T, k int, key func(T) uint32) []int64 {
	n := len(src)
	if len(dst) != n {
		panic("parallel: PartitionByKey dst length != src length")
	}
	if k < 1 {
		panic("parallel: PartitionByKey needs k >= 1")
	}
	offsets := make([]int64, k+1)
	if n == 0 {
		return offsets
	}
	grain, chunks := histogramGrain(n)
	if chunks <= 1 || n < SeqCutoff || k > 1<<16 {
		// Sequential counting sort: for tiny inputs the launches dominate,
		// and for huge key ranges the per-chunk histogram copies would.
		for i := 0; i < n; i++ {
			offsets[key(src[i])+1]++
		}
		for d := 0; d < k; d++ {
			offsets[d+1] += offsets[d]
		}
		cursor := append([]int64(nil), offsets[:k]...)
		for i := 0; i < n; i++ {
			d := key(src[i])
			dst[cursor[d]] = src[i]
			cursor[d]++
		}
		return offsets
	}
	counts := make([]int64, chunks*k)
	col := make([]int64, chunks*k)
	ForRange(n, grain, func(lo, hi int) {
		h := counts[(lo/grain)*k : (lo/grain)*k+k]
		for i := lo; i < hi; i++ {
			h[key(src[i])]++
		}
	})
	scanChunkCursors(counts, col, chunks, k, offsets)
	ForRange(n, grain, func(lo, hi int) {
		h := counts[(lo/grain)*k : (lo/grain)*k+k]
		for i := lo; i < hi; i++ {
			d := key(src[i])
			dst[h[d]] = src[i]
			h[d]++
		}
	})
	return offsets
}
