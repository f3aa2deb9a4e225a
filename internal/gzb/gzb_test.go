package gzb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randSortedList builds a sorted (possibly duplicated) neighbor list in
// [0, n).
func randSortedList(rng *rand.Rand, n, deg int) []uint32 {
	nbrs := make([]uint32, deg)
	for i := range nbrs {
		nbrs[i] = uint32(rng.Intn(n))
	}
	for i := 1; i < len(nbrs); i++ {
		for j := i; j > 0 && nbrs[j] < nbrs[j-1]; j-- {
			nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
		}
	}
	return nbrs
}

func TestListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 1 << 16
	for trial := 0; trial < 2000; trial++ {
		v := uint32(rng.Intn(n))
		deg := rng.Intn(40)
		nbrs := randSortedList(rng, n, deg)
		var wts []uint32
		if trial%2 == 1 {
			wts = make([]uint32, deg)
			for i := range wts {
				wts[i] = rng.Uint32()
			}
		}
		enc := AppendList(nil, v, nbrs, wts)
		if got, want := len(enc), EncodedListSize(v, nbrs, wts); got != want {
			t.Fatalf("trial %d: encoded %d bytes, EncodedListSize says %d", trial, got, want)
		}
		cdeg, err := CheckList(enc, v, uint32(n), wts != nil)
		if err != nil {
			t.Fatalf("trial %d: CheckList rejected valid encoding: %v", trial, err)
		}
		if int(cdeg) != deg {
			t.Fatalf("trial %d: CheckList degree %d, want %d", trial, cdeg, deg)
		}
		if d, _ := DecodeDegree(enc); int(d) != deg {
			t.Fatalf("trial %d: DecodeDegree %d, want %d", trial, d, deg)
		}
		var wbuf []uint32
		if wts != nil {
			wbuf = make([]uint32, 0, deg)
		}
		gotN, gotW := DecodeList(enc, v, wts != nil, make([]uint32, 0, deg), wbuf)
		if len(gotN) != deg {
			t.Fatalf("trial %d: decoded %d neighbors, want %d", trial, len(gotN), deg)
		}
		for i := range nbrs {
			if gotN[i] != nbrs[i] {
				t.Fatalf("trial %d: nbr[%d] = %d, want %d", trial, i, gotN[i], nbrs[i])
			}
			if wts != nil && gotW[i] != wts[i] {
				t.Fatalf("trial %d: wt[%d] = %d, want %d", trial, i, gotW[i], wts[i])
			}
		}
	}
}

// listCase is one vertex's list: its id, sorted neighbors and weights
// (nil: unweighted).
type listCase struct {
	name      string
	v         uint32
	nbrs, wts []uint32
}

// lastID is the largest id of the n = 2^32 - 1 universe.
const lastID = math.MaxUint32 - 1

// listExtremes are the boundary encodings: empty lists, the extreme first
// deltas (neighbor 0 from the last vertex and vice versa), maximal
// weights, and runs of zero gaps (duplicate arcs). FuzzGzbRoundTrip's
// corpus starts from them too.
var listExtremes = []listCase{
	{name: "empty", v: 7, nbrs: nil},
	{name: "self-loop", v: 9, nbrs: []uint32{9}},
	{name: "max-negative-delta", v: lastID, nbrs: []uint32{0}},
	{name: "max-positive-delta", v: 0, nbrs: []uint32{lastID}},
	{name: "full-span", v: lastID, nbrs: []uint32{0, lastID}},
	{name: "duplicates", v: 3, nbrs: []uint32{5, 5, 5, 5}},
	{name: "max-weight", v: 0, nbrs: []uint32{1}, wts: []uint32{math.MaxUint32}},
}

// TestListExtremes pins the boundary encodings of listExtremes.
func TestListExtremes(t *testing.T) {
	n := uint32(math.MaxUint32)
	for _, tc := range listExtremes {
		enc := AppendList(nil, tc.v, tc.nbrs, tc.wts)
		if _, err := CheckList(enc, tc.v, n, tc.wts != nil); err != nil {
			t.Fatalf("%s: CheckList: %v", tc.name, err)
		}
		gotN, gotW := DecodeList(enc, tc.v, tc.wts != nil, nil, nil)
		if len(gotN) != len(tc.nbrs) {
			t.Fatalf("%s: decoded %d neighbors, want %d", tc.name, len(gotN), len(tc.nbrs))
		}
		for i := range tc.nbrs {
			if gotN[i] != tc.nbrs[i] {
				t.Fatalf("%s: nbr[%d] = %d, want %d", tc.name, i, gotN[i], tc.nbrs[i])
			}
		}
		if tc.wts != nil {
			_, gotW = DecodeList(enc, tc.v, true, nil, make([]uint32, 0, 1))
			for i := range tc.wts {
				if gotW[i] != tc.wts[i] {
					t.Fatalf("%s: wt[%d] = %d, want %d", tc.name, i, gotW[i], tc.wts[i])
				}
			}
		}
	}
}

// TestCheckListRejects feeds CheckList corrupt encodings and demands an
// error naming a byte offset for each.
func TestCheckListRejects(t *testing.T) {
	good := AppendList(nil, 5, []uint32{2, 8, 8, 900}, nil)
	n := uint32(1000)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{name: "empty-input", data: nil, want: "truncated degree"},
		{name: "truncated-mid-list", data: good[:len(good)-1], want: "truncated delta"},
		{name: "trailing-garbage", data: append(append([]byte{}, good...), 0x01), want: "trailing"},
		{name: "degree-too-big", data: AppendList(nil, 5, make([]uint32, 0, 0), nil)[:0], want: ""},
		{name: "unterminated-varint", data: []byte{0x80, 0x80, 0x80}, want: "truncated degree"},
		{name: "neighbor-out-of-range", data: AppendList(nil, 5, []uint32{uint32(n)}, nil), want: "out of range"},
	}
	for _, tc := range cases {
		if tc.name == "degree-too-big" {
			// A degree claiming more arcs than vertices exist.
			tc.data = AppendList(nil, 0, nil, nil)
			tc.data[0] = 0xff // degree varint prefix, then truncation
			tc.want = "truncated degree"
		}
		_, err := CheckList(tc.data, 5, n, false)
		if err == nil {
			t.Fatalf("%s: corrupt list accepted", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), "byte ") {
			t.Fatalf("%s: error %q carries no byte offset", tc.name, err)
		}
	}
	// A degree claiming more arcs than the payload could hold is its own
	// rejection class.
	big := binaryAppendDegree(nil, uint64(n)+1)
	if _, err := CheckList(big, 0, n, false); err == nil || !strings.Contains(err.Error(), "degree") {
		t.Fatalf("oversized degree not rejected: %v", err)
	}
}

func binaryAppendDegree(dst []byte, deg uint64) []byte {
	for deg >= 0x80 {
		dst = append(dst, byte(deg)|0x80)
		deg >>= 7
	}
	return append(dst, byte(deg))
}

func TestUvarintAgreesWithSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		x := rng.Uint64() >> uint(rng.Intn(64))
		enc := AppendList(nil, 0, nil, nil) // placeholder, rebuilt below
		enc = binaryAppendDegree(enc[:0], x)
		v, pos := Uvarint(enc, 0)
		if v != x || pos != len(enc) {
			t.Fatalf("Uvarint(%x) = (%d, %d), want (%d, %d)", enc, v, pos, x, len(enc))
		}
	}
}
