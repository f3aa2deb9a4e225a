package hashbag

import (
	"encoding/binary"
	"testing"
)

// FuzzHashBag drives insert/extract round-trips against a map-based
// multiset oracle. The input is parsed as a sequence of 5-byte operations:
// an opcode byte followed by a little-endian uint32 value. Opcode 0xff
// extracts and cross-checks the full contents; every other opcode inserts
// the value (masked below the empty sentinel). Run with
// `go test -fuzz FuzzHashBag ./internal/hashbag`.
func FuzzHashBag(f *testing.F) {
	// Seed corpus: empty, single insert, duplicate inserts, an
	// insert/extract/insert round-trip, and a growth-forcing burst.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0})
	f.Add([]byte{0, 42, 0, 0, 0, 1, 42, 0, 0, 0, 2, 42, 0, 0, 0})
	f.Add([]byte{0, 7, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 9, 0, 0, 0})
	burst := make([]byte, 0, 5*300)
	for i := 0; i < 300; i++ {
		var op [5]byte
		op[0] = byte(i % 3)
		binary.LittleEndian.PutUint32(op[1:], uint32(i*2654435761))
		burst = append(burst, op[:]...)
	}
	f.Add(burst)

	f.Fuzz(func(t *testing.T, data []byte) {
		b := New(64)
		oracle := map[uint32]int{} // multiset: inserted value -> count
		size := 0
		check := func(stage string) {
			if b.Empty() != (size == 0) {
				t.Fatalf("%s: Empty = %v with %d inserts pending", stage, b.Empty(), size)
			}
			got := b.Extract()
			if len(got) != size {
				t.Fatalf("%s: extracted %d values, oracle has %d", stage, len(got), size)
			}
			counts := map[uint32]int{}
			for _, v := range got {
				counts[v]++
			}
			for v, n := range oracle {
				if counts[v] != n {
					t.Fatalf("%s: value %d extracted %d times, oracle has %d", stage, v, counts[v], n)
				}
			}
			oracle = map[uint32]int{}
			size = 0
		}
		for len(data) >= 5 {
			op := data[0]
			v := binary.LittleEndian.Uint32(data[1:5])
			data = data[5:]
			if op == 0xff {
				check("mid-stream extract")
				continue
			}
			v &= 1<<31 - 1 // stay clear of the empty sentinel
			b.Insert(v)
			oracle[v]++
			size++
			if b.Empty() {
				t.Fatalf("Empty after %d inserts", size)
			}
		}
		check("final extract")
		// The bag must remain usable after a full drain.
		b.Insert(3)
		if got := b.Extract(); len(got) != 1 || got[0] != 3 {
			t.Fatalf("reuse after drain: got %v", got)
		}
	})
}
