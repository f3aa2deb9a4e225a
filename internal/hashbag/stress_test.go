package hashbag

import (
	"runtime"
	"sync"
	"testing"
)

// TestStressHashBagConcurrentInsertResize hammers a deliberately tiny bag
// from many goroutines so that inserts race with chunk growth across many
// levels. Run under the race tier (`go test -race -run Stress -count=3`)
// this exercises the publish-then-bump protocol in grow() and the
// CAS-insert path concurrently. Every inserted value must come back out of
// Extract exactly once.
func TestStressHashBagConcurrentInsertResize(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	for round, workers := range []int{4, 8, 16} {
		b := New(64) // minimum chunk: growth is immediate and frequent
		per := 120000 / workers
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					b.Insert(uint32(w*per + i))
					if i%1024 == 0 {
						runtime.Gosched() // shuffle interleavings
					}
				}
			}(w)
		}
		wg.Wait()
		n := workers * per
		if b.Empty() {
			t.Fatalf("round %d: Empty after %d concurrent inserts", round, n)
		}
		got := sorted(b.Extract())
		if len(got) != n {
			t.Fatalf("round %d: extracted %d values, want %d", round, len(got), n)
		}
		for i := range got {
			if got[i] != uint32(i) {
				t.Fatalf("round %d: value %d missing or duplicated (found %d)", round, i, got[i])
			}
		}
	}
}

// TestStressHashBagReuseUnderContention interleaves contended insert
// phases with extract/reset phases, reusing one bag across rounds the way
// frontier-based algorithms do.
func TestStressHashBagReuseUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	b := New(64)
	const workers = 8
	const per = 4000
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				base := uint32(round*workers*per + w*per)
				for i := 0; i < per; i++ {
					b.Insert(base + uint32(i))
				}
			}(w)
		}
		wg.Wait()
		got := sorted(b.Extract())
		if len(got) != workers*per {
			t.Fatalf("round %d: got %d, want %d", round, len(got), workers*per)
		}
		lo := uint32(round * workers * per)
		for i, v := range got {
			if v != lo+uint32(i) {
				t.Fatalf("round %d: slot %d = %d, want %d", round, i, v, lo+uint32(i))
			}
		}
	}
}
