// Package capture exercises the parallel-capture analyzer: closures handed
// to the fork-join runtime (or launched with go) must not assign to
// variables declared outside themselves.
package capture

import (
	"sync"
	"sync/atomic"

	"pasgal/internal/parallel"
)

// badSum is the classic racy reduction: every worker bumps the same cell.
func badSum(xs []int64) int64 {
	var sum int64
	parallel.For(len(xs), 0, func(i int) {
		sum += xs[i] // want:parallel-capture
	})
	return sum
}

// badAppend races on both the slice header and the backing array.
func badAppend(xs []int64) []int64 {
	var out []int64
	parallel.ForRange(len(xs), 0, func(lo, hi int) {
		out = append(out, xs[lo:hi]...) // want:parallel-capture
	})
	return out
}

// badGo mutates a captured counter from a plain goroutine.
func badGo() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n++ // want:parallel-capture
	}()
	wg.Wait()
	return n
}

// lockedWrites orders its counter and high-water mark with a captured
// mutex; the writes after Unlock and under a read lock are still races.
func lockedWrites(xs []int64) (int64, int64) {
	var mu sync.Mutex
	var rw sync.RWMutex
	var sum, peak, late, seen int64
	parallel.For(len(xs), 0, func(i int) {
		mu.Lock()
		sum += xs[i] // ok: mu is held
		if sum > peak {
			peak = sum // ok: held in the enclosing block
		}
		mu.Unlock()
		late = xs[i] // want:parallel-capture
		rw.RLock()
		seen++ // want:parallel-capture
		rw.RUnlock()
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rw.Lock()
		defer rw.Unlock()
		seen = 0 // ok: the deferred Unlock holds rw to the end of the block
	}()
	wg.Wait()
	return sum + late, peak + seen
}

// goodIndexDisjoint writes only to the element owned by this iteration.
func goodIndexDisjoint(xs []int64) []int64 {
	out := make([]int64, len(xs))
	parallel.For(len(xs), 0, func(i int) {
		out[i] = xs[i] * 2 // ok: index-disjoint
	})
	return out
}

// goodAtomic reduces through an atomic.
func goodAtomic(xs []int64) int64 {
	var sum atomic.Int64
	parallel.For(len(xs), 0, func(i int) {
		sum.Add(xs[i]) // ok: atomic method call, not a plain assignment
	})
	return sum.Load()
}

// goodLocal accumulates into a variable owned by the closure.
func goodLocal(xs []int64) []int64 {
	chunks := make([]int64, len(xs))
	parallel.ForRange(len(xs), 0, func(lo, hi int) {
		acc := int64(0)
		for i := lo; i < hi; i++ {
			acc += xs[i] // ok: acc and i are declared inside the closure
		}
		chunks[lo] = acc // ok: lo-disjoint slot
	})
	return chunks
}

// allowlisted shows a vetted capture: the write is guarded by a sync.Once
// and only read after the join, so it is suppressed with a justification.
func allowlisted(xs []int64) int64 {
	var first int64
	var once sync.Once
	parallel.For(len(xs), 0, func(i int) {
		once.Do(func() {
			first = xs[i] //pasgal:vet ignore=parallel-capture -- sync.Once guards the single write; read after join
		})
	})
	return first
}
