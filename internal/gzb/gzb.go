// Package gzb implements the byte codec behind PASGAL's compressed CSR
// representation (graph.Compressed): GBBS-style difference-encoded
// adjacency lists in base-128 varints.
//
// One vertex's adjacency list encodes independently of every other —
// each list is its own restart point, so whole-graph encoding and
// decode-on-scan traversal parallelize per vertex with no shared decoder
// state. The layout of one list for vertex v with sorted neighbors
// v0 <= v1 <= ... is:
//
//	uvarint(deg)
//	zigzag(v0 - v)   [uvarint(w0)]
//	uvarint(v1 - v0) [uvarint(w1)]
//	uvarint(v2 - v1) [uvarint(w2)]
//	...
//
// The first neighbor is a signed delta from the owning vertex (zigzag
// encoded: most neighbors of v sit near v in a locality-friendly
// ordering), and every later neighbor is an unsigned gap from its
// predecessor — legal because builders keep adjacency sorted, and gaps
// of zero encode duplicate arcs exactly. Weights, when present, are
// interleaved after each target so a weighted scan stays one forward
// pass.
//
// The package has two decoding modes: trusted (DecodeList, DecodeDegree
// — no validation, used on data that passed CheckList once) and checked
// (CheckList — bounds- and range-validates one list and reports the
// exact byte offset of the first corruption, used by the gio readers on
// untrusted bytes).
package gzb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// MaxDeltaSize is the worst-case encoded size in bytes of one uvarint
// this codec emits. Gaps and weights fit in 32 bits (5 bytes); the
// zigzag first delta spans [-2^32, 2^32) (also 5 bytes); degrees are at
// most 2^32 (5 bytes).
const MaxDeltaSize = 5

// Zigzag folds a signed delta into an unsigned varint payload with small
// magnitudes small: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
func Zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// Unzigzag inverts Zigzag; decoders apply it to the first delta of a list.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodedListSize returns the exact number of bytes AppendList would
// emit for vertex v's list. wts is nil for unweighted graphs.
func EncodedListSize(v uint32, nbrs, wts []uint32) int {
	size := uvarintSize(uint64(len(nbrs)))
	prev := int64(v)
	for i, w := range nbrs {
		if i == 0 {
			size += uvarintSize(Zigzag(int64(w) - prev))
		} else {
			size += uvarintSize(uint64(int64(w) - prev))
		}
		prev = int64(w)
		if wts != nil {
			size += uvarintSize(uint64(wts[i]))
		}
	}
	return size
}

// AppendList appends the encoding of vertex v's sorted adjacency list to
// dst and returns the extended slice. wts must be nil (unweighted) or
// len(nbrs) long.
func AppendList(dst []byte, v uint32, nbrs, wts []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(nbrs)))
	prev := int64(v)
	for i, w := range nbrs {
		if i == 0 {
			dst = binary.AppendUvarint(dst, Zigzag(int64(w)-prev))
		} else {
			dst = binary.AppendUvarint(dst, uint64(int64(w)-prev))
		}
		prev = int64(w)
		if wts != nil {
			dst = binary.AppendUvarint(dst, uint64(wts[i]))
		}
	}
	return dst
}

// DecodeDegree reads the degree field at the start of a trusted list
// encoding and returns it with the number of header bytes consumed.
func DecodeDegree(data []byte) (deg uint32, headerLen int) {
	u, k := Uvarint(data, 0)
	return uint32(u), k
}

// DecodeList appends vertex v's neighbors (and weights, when wts is
// non-nil) decoded from the trusted list encoding at the start of data,
// returning the extended slices. weighted states whether the encoding
// interleaves weights — an unweighted scan of a weighted list passes
// weighted=true with wts=nil and the weight bytes are skipped. data must
// have passed CheckList; corrupt trusted data panics via slice bounds
// rather than decoding silently wrong.
func DecodeList(data []byte, v uint32, weighted bool, nbrs, wts []uint32) ([]uint32, []uint32) {
	u, pos := Uvarint(data, 0)
	deg := int(u)
	if deg == 0 {
		return nbrs, wts
	}
	// One exact allocation when the list outgrows the caller's scratch
	// (hub lists do, on every scan: graph.Scanner hands scratch over by
	// value and cannot keep a grown buffer), not a doubling chain.
	nbrs = slices.Grow(nbrs, deg)
	if wts != nil {
		wts = slices.Grow(wts, deg)
	}
	// The first delta is the only signed one; peeling it keeps the per-arc
	// loops free of the zigzag branch.
	u, pos = Uvarint(data, pos)
	prev := uint32(int64(v) + Unzigzag(u))
	nbrs = append(nbrs, prev)
	if weighted {
		u, pos = Uvarint(data, pos)
		if wts != nil {
			wts = append(wts, uint32(u))
		}
		for i := 1; i < deg; i++ {
			u, pos = Uvarint(data, pos)
			prev += uint32(u)
			nbrs = append(nbrs, prev)
			u, pos = Uvarint(data, pos)
			if wts != nil {
				wts = append(wts, uint32(u))
			}
		}
		return nbrs, wts
	}
	// Unweighted gap loop — the BFS push scan's inner decode. The varint
	// fast path is open-coded so the one-byte case (the overwhelming
	// majority after relabeling) runs branch+add with no call.
	for i := 1; i < deg; i++ {
		if b := data[pos]; b < 0x80 {
			prev += uint32(b)
			pos++
		} else {
			u, pos = uvarintSlow(data, pos)
			prev += uint32(u)
		}
		nbrs = append(nbrs, prev)
	}
	return nbrs, wts
}

// Uvarint decodes one base-128 varint from data at pos and returns the
// value with the position just past it. The one-byte case — the vast
// majority of gaps after degree-ordered relabeling — stays on a branch
// the compiler can inline; longer varints take the outlined slow path.
func Uvarint(data []byte, pos int) (uint64, int) {
	if b := data[pos]; b < 0x80 {
		return uint64(b), pos + 1
	}
	return uvarintSlow(data, pos)
}

func uvarintSlow(data []byte, pos int) (uint64, int) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := data[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, pos
		}
	}
}

func uvarintSize(x uint64) int {
	size := 1
	for x >= 0x80 {
		x >>= 7
		size++
	}
	return size
}

// CheckList validates one list encoding against untrusted bytes: every
// varint must terminate inside data, every decoded neighbor must be in
// [0, n), the implied neighbor order must be
// non-decreasing (guaranteed by construction: gaps are unsigned), and
// the list must occupy exactly len(data) bytes. It returns the decoded
// degree and, on corruption, an error naming the byte offset (relative
// to the start of the list) of the first bad field.
func CheckList(data []byte, v, n uint32, weighted bool) (deg uint32, err error) {
	u, pos, ok := checkedUvarint(data, 0)
	if !ok {
		return 0, fmt.Errorf("byte 0: truncated degree varint")
	}
	// Duplicate arcs can push a degree past n, but never past the payload
	// length: every arc costs at least one byte.
	if u > uint64(len(data)) {
		return 0, fmt.Errorf("byte 0: degree %d exceeds the %d-byte list payload", u, len(data))
	}
	deg = uint32(u)
	prev := int64(v)
	for i := uint32(0); i < deg; i++ {
		at := pos
		u, pos, ok = checkedUvarint(data, pos)
		if !ok {
			return 0, fmt.Errorf("byte %d: truncated delta varint (arc %d of %d)", at, i, deg)
		}
		if i == 0 {
			d := Unzigzag(u)
			if d < -int64(v) || d > math.MaxUint32 {
				return 0, fmt.Errorf("byte %d: first delta %d leaves [0, 2^32)", at, d)
			}
			prev += d
		} else {
			if u > math.MaxUint32 {
				return 0, fmt.Errorf("byte %d: gap %d exceeds the 32-bit id space", at, u)
			}
			prev += int64(u)
		}
		if prev >= int64(n) {
			return 0, fmt.Errorf("byte %d: neighbor %d out of range (n=%d)", at, prev, n)
		}
		if weighted {
			at = pos
			u, pos, ok = checkedUvarint(data, pos)
			if !ok {
				return 0, fmt.Errorf("byte %d: truncated weight varint (arc %d of %d)", at, i, deg)
			}
			if u > math.MaxUint32 {
				return 0, fmt.Errorf("byte %d: weight %d exceeds the 32-bit limit", at, u)
			}
		}
	}
	if pos != len(data) {
		return 0, fmt.Errorf("byte %d: %d trailing bytes after %d arcs", pos, len(data)-pos, deg)
	}
	return deg, nil
}

// checkedUvarint is Uvarint against untrusted bytes: it refuses to read
// past data and rejects varints longer than binary.MaxVarintLen64.
func checkedUvarint(data []byte, pos int) (uint64, int, bool) {
	v, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return 0, pos, false
	}
	return v, pos + k, true
}
