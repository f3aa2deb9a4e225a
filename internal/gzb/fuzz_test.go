package gzb

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzN is the id universe of FuzzGzbRoundTrip's derived lists: every id
// a list can hold.
const fuzzN = math.MaxUint32

// fuzzList derives a list from fuzz bytes: byte 0's low bit asks for
// weights, then come a uvarint vertex id and, per arc, a uvarint (the
// first neighbor, then the gap from the previous one) and, weighted, a
// uvarint weight. The list ends at the input's end or at the first varint
// that is malformed or leaves the id or weight range, so every input
// yields a valid sorted list.
func fuzzList(data []byte) listCase {
	var c listCase
	if len(data) == 0 {
		return c
	}
	weighted := data[0]&1 == 1
	data = data[1:]
	next := func(limit uint64) (uint64, bool) {
		x, k := binary.Uvarint(data)
		if k <= 0 || x > limit {
			return 0, false
		}
		data = data[k:]
		return x, true
	}
	v, ok := next(fuzzN - 1)
	if !ok {
		return c
	}
	c.v = uint32(v)
	if weighted {
		c.wts = []uint32{}
	}
	prev := uint64(0)
	for {
		gap, ok := next(fuzzN - 1 - prev)
		if !ok {
			return c
		}
		var w uint64
		if weighted {
			if w, ok = next(math.MaxUint32); !ok {
				return c
			}
			c.wts = append(c.wts, uint32(w))
		}
		prev += gap
		c.nbrs = append(c.nbrs, uint32(prev))
	}
}

// fuzzInput is fuzzList's inverse: the bytes it derives c from.
func fuzzInput(c listCase) []byte {
	flag := byte(0)
	if c.wts != nil {
		flag = 1
	}
	b := binary.AppendUvarint([]byte{flag}, uint64(c.v))
	prev := uint64(0)
	for i, w := range c.nbrs {
		b = binary.AppendUvarint(b, uint64(w)-prev)
		prev = uint64(w)
		if c.wts != nil {
			b = binary.AppendUvarint(b, uint64(c.wts[i]))
		}
	}
	return b
}

// FuzzGzbRoundTrip checks the codec both ways. A list derived from the
// input (fuzzList) must encode to exactly EncodedListSize bytes, pass
// CheckList with its degree, and decode back to itself. The raw input,
// read as a list encoding, must be rejected by CheckList or agree with
// DecodeDegree, and an accepted list must decode without panicking into
// that many in-range, non-decreasing neighbors. Run with
// `go test -fuzz FuzzGzbRoundTrip ./internal/gzb`.
func FuzzGzbRoundTrip(f *testing.F) {
	for _, c := range listExtremes {
		f.Add(fuzzInput(c))
		f.Add(AppendList(nil, c.v, c.nbrs, c.wts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzList(data)
		weighted := c.wts != nil
		enc := AppendList(nil, c.v, c.nbrs, c.wts)
		if size := EncodedListSize(c.v, c.nbrs, c.wts); len(enc) != size {
			t.Fatalf("v=%d: AppendList wrote %d bytes, EncodedListSize says %d", c.v, len(enc), size)
		}
		if deg, err := CheckList(enc, c.v, fuzzN, weighted); err != nil || int(deg) != len(c.nbrs) {
			t.Fatalf("v=%d: CheckList = %d, %v on a valid %d-arc list", c.v, deg, err, len(c.nbrs))
		}
		gotN, gotW := DecodeList(enc, c.v, weighted, nil, c.wts[:0:0])
		if !slices.Equal(gotN, c.nbrs) || !slices.Equal(gotW, c.wts) {
			t.Fatalf("v=%d: decoded %v %v, want %v %v", c.v, gotN, gotW, c.nbrs, c.wts)
		}

		for _, n := range []uint32{64, fuzzN} {
			for _, weighted := range []bool{false, true} {
				deg, err := CheckList(data, c.v, n, weighted)
				if err != nil {
					continue
				}
				if d, _ := DecodeDegree(data); d != deg {
					t.Fatalf("CheckList degree %d, DecodeDegree %d", deg, d)
				}
				nbrs, _ := DecodeList(data, c.v, weighted, nil, nil)
				if len(nbrs) != int(deg) {
					t.Fatalf("accepted list of degree %d decodes to %d neighbors", deg, len(nbrs))
				}
				for i, w := range nbrs {
					if w >= n || i > 0 && w < nbrs[i-1] {
						t.Fatalf("accepted list decodes to %v: neighbor %d out of range (n=%d) or order", nbrs, i, n)
					}
				}
			}
		}
	})
}
