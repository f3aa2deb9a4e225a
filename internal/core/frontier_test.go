package core

import (
	"fmt"
	"slices"
	"testing"

	"pasgal/internal/parallel"
)

// TestFrontierSetHandOff checks the lists a bottom-up round hands to a
// bucket whole, in both frontier modes: the hand-off alone makes the
// bucket non-empty, it extracts as the multiset union with the bucket's
// concurrent inserts (an id in both comes back twice), a second hand-off
// appends, and distances d and d+k share ring slot d%k.
func TestFrontierSetHandOff(t *testing.T) {
	old := parallel.SetWorkers(4)
	defer parallel.SetWorkers(old)
	const n, k = 5000, 6
	sorted := func(s []uint32) []uint32 {
		s = slices.Clone(s)
		slices.Sort(s)
		return s
	}
	for _, flat := range []bool{false, true} {
		t.Run(fmt.Sprintf("flat=%v", flat), func(t *testing.T) {
			fs := newFrontierSet(n, k, flat, nil)
			for d := 0; d < 2*k; d++ {
				if !fs.empty(d) {
					t.Fatalf("fresh bucket %d not empty", d)
				}
			}

			// A handed list alone.
			fs.hand(3, []uint32{7, 1, 4000})
			if fs.empty(3) {
				t.Fatal("bucket holding only a handed list reads empty")
			}
			if !fs.empty(4) {
				t.Fatal("hand-off to bucket 3 made bucket 4 non-empty")
			}
			if got := fs.extract(3); !slices.Equal(sorted(got), []uint32{1, 7, 4000}) {
				t.Fatalf("extract(3) = %v, want the handed list", got)
			}
			if !fs.empty(3) {
				t.Fatal("bucket 3 not empty after extract")
			}

			// Handed lists plus concurrent inserts: multiples of 3 are
			// handed in two lists, multiples of 2 inserted from parallel
			// chunks, so multiples of 6 come back twice.
			var handed, inserted []uint32
			for v := uint32(0); v < n; v++ {
				if v%3 == 0 {
					handed = append(handed, v)
				}
				if v%2 == 0 {
					inserted = append(inserted, v)
				}
			}
			const d = 2
			fs.hand(d, slices.Clone(handed[:len(handed)/2]))
			parallel.For(len(inserted), 1, func(i int) { fs.insert(d, inserted[i]) })
			fs.hand(d, slices.Clone(handed[len(handed)/2:]))
			want := sorted(append(slices.Clone(handed), inserted...))
			if fs.empty(d) {
				t.Fatal("bucket with handed lists and inserts reads empty")
			}
			if got := sorted(fs.extract(d)); !slices.Equal(got, want) {
				t.Fatalf("extract(%d): %d entries, want the %d of the multiset union", d, len(got), len(want))
			}
			if !fs.empty(d) {
				t.Fatal("bucket not empty after extract")
			}

			// Ring wrap-around: d+k lands in d's slot, for hand-offs and
			// inserts alike.
			fs.hand(d+k, []uint32{11, 12})
			fs.insert(d+2*k, 13)
			if fs.empty(d) {
				t.Fatal("hand-off to d+k not seen by bucket d")
			}
			if got := sorted(fs.extract(d + k)); !slices.Equal(got, []uint32{11, 12, 13}) {
				t.Fatalf("extract(d+k) = %v, want [11 12 13]", got)
			}
			if !fs.empty(d) || !fs.empty(d+k) {
				t.Fatal("slot not empty after a wrapped extract")
			}
		})
	}
}
