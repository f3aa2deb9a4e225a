package hashbag

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"pasgal/internal/parallel"
)

func sorted(s []uint32) []uint32 {
	out := append([]uint32(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestInsertExtractSequential(t *testing.T) {
	b := New(64)
	want := []uint32{5, 1, 9, 123456, 0, 7}
	for _, v := range want {
		b.Insert(v)
	}
	if b.Empty() {
		t.Fatalf("Empty after %d inserts", len(want))
	}
	got := sorted(b.Extract())
	if len(got) != len(want) {
		t.Fatalf("Extract returned %d values, want %d", len(got), len(want))
	}
	ws := sorted(want)
	for i := range ws {
		if got[i] != ws[i] {
			t.Fatalf("Extract[%d] = %d, want %d", i, got[i], ws[i])
		}
	}
	if got := b.Extract(); len(got) != 0 || !b.Empty() {
		t.Fatalf("second Extract returned %d values, Empty = %v", len(got), b.Empty())
	}
}

func TestGrowthBeyondFirstChunk(t *testing.T) {
	b := New(64)
	n := uint32(100000)
	for v := uint32(0); v < n; v++ {
		b.Insert(v)
	}
	got := sorted(b.Extract())
	if len(got) != int(n) {
		t.Fatalf("Extract returned %d values, want %d", len(got), n)
	}
	for i := uint32(0); i < n; i++ {
		if got[i] != i {
			t.Fatalf("missing value %d (got %d)", i, got[i])
		}
	}
}

func TestConcurrentInsert(t *testing.T) {
	b := New(128)
	const workers = 8
	const per = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Insert(uint32(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	got := sorted(b.Extract())
	if len(got) != workers*per {
		t.Fatalf("got %d values, want %d", len(got), workers*per)
	}
	for i := range got {
		if got[i] != uint32(i) {
			t.Fatalf("value %d missing (found %d)", i, got[i])
		}
	}
}

func TestDuplicatesAreKept(t *testing.T) {
	b := New(64)
	for i := 0; i < 10; i++ {
		b.Insert(42)
	}
	got := b.Extract()
	if len(got) != 10 {
		t.Fatalf("got %d copies, want 10 (bag is a multiset)", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("unexpected value %d", v)
		}
	}
}

func TestReset(t *testing.T) {
	b := New(64)
	for v := uint32(0); v < 1000; v++ {
		b.Insert(v)
	}
	b.Reset()
	if !b.Empty() {
		t.Fatal("not Empty after Reset")
	}
	if got := b.Extract(); len(got) != 0 {
		t.Fatalf("Extract after Reset returned %d values", len(got))
	}
	// Bag remains usable.
	b.Insert(7)
	if got := b.Extract(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("reuse after Reset failed: %v", got)
	}
}

func TestReuseAcrossRounds(t *testing.T) {
	b := New(64)
	rng := rand.New(rand.NewPCG(1, 1))
	for round := 0; round < 20; round++ {
		n := 1 + rng.IntN(5000)
		vals := make(map[uint32]bool, n)
		for i := 0; i < n; i++ {
			v := rng.Uint32N(1 << 30)
			for vals[v] {
				v++
			}
			vals[v] = true
			b.Insert(v)
		}
		got := b.Extract()
		if len(got) != len(vals) {
			t.Fatalf("round %d: got %d, want %d", round, len(got), len(vals))
		}
		for _, v := range got {
			if !vals[v] {
				t.Fatalf("round %d: unexpected value %d", round, v)
			}
		}
	}
}

// Property: extracting after inserting any set of distinct values returns
// exactly that set.
func TestQuickSetSemantics(t *testing.T) {
	f := func(raw []uint32) bool {
		b := New(64)
		set := make(map[uint32]bool)
		for _, v := range raw {
			v &= 1<<31 - 1 // avoid the sentinel
			if !set[v] {
				set[v] = true
				b.Insert(v)
			}
		}
		got := b.Extract()
		if len(got) != len(set) {
			return false
		}
		for _, v := range got {
			if !set[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelInsertViaRuntime(t *testing.T) {
	// Insert through the parallel runtime, as the algorithms do.
	b := New(256)
	n := 150000
	parallel.For(n, 0, func(i int) { b.Insert(uint32(i)) })
	got := sorted(b.Extract())
	if len(got) != n {
		t.Fatalf("got %d, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != uint32(i) {
			t.Fatalf("missing %d", i)
		}
	}
}

// TestBagLayout pins the padding around est, the field one insert in
// 2^sampleShift writes: no byte of it may lie within a cache line (64
// bytes) of active or nonEmpty, which every insert loads, wherever the
// allocator places the Bag.
func TestBagLayout(t *testing.T) {
	var b Bag
	est := int(unsafe.Offsetof(b.est))
	estEnd := est + int(unsafe.Sizeof(b.est))
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"active", unsafe.Offsetof(b.active), unsafe.Sizeof(b.active)},
		{"nonEmpty", unsafe.Offsetof(b.nonEmpty), unsafe.Sizeof(b.nonEmpty)},
	} {
		lo, hi := int(f.off), int(f.off+f.size)
		// The distance between the closest two bytes of the two ranges.
		if d := max(lo-(estEnd-1), est-(hi-1)); d < 64 {
			t.Errorf("est [%d,%d) lies within 64 bytes of %s [%d,%d)", est, estEnd, f.name, lo, hi)
		}
	}
}
