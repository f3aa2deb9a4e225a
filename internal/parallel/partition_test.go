package parallel

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

func TestPartitionByKeyPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("length mismatch", func() {
		PartitionByKey(make([]int, 3), make([]int, 4), 2, func(int) uint32 { return 0 })
	})
	expectPanic("k < 1", func() {
		PartitionByKey([]int{}, []int{}, 0, func(int) uint32 { return 0 })
	})
	expectPanic("key out of range", func() {
		PartitionByKey(make([]int, 2), []int{1, 2}, 1, func(v int) uint32 { return uint32(v) })
	})
}

// TestPartitionByKeyHugeKeyRange pins the sequential fallback for key
// ranges past the dense-histogram cutoff (k > 1<<16): still stable, still
// correct offsets.
func TestPartitionByKeyHugeKeyRange(t *testing.T) {
	const k = 1<<16 + 9
	const n = 5000
	rng := rand.New(rand.NewPCG(5, 5))
	type rec struct {
		key uint32
		id  int
	}
	src := make([]rec, n)
	for i := range src {
		src[i] = rec{key: uint32(rng.IntN(k)), id: i}
	}
	want := slices.Clone(src)
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
	dst := make([]rec, n)
	offsets := PartitionByKey(dst, src, k, func(r rec) uint32 { return r.key })
	if !slices.Equal(dst, want) {
		t.Fatal("huge-k partition not the stable order")
	}
	if offsets[k] != n {
		t.Fatalf("offsets[k] = %d, want %d", offsets[k], n)
	}
}
