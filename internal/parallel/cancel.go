package parallel

import (
	"sync"
	"sync/atomic"
)

// Cancel is a cooperative cancellation token for parallel loops: an atomic
// flag plus the first recorded cause. A loop launched with ForRangeCancel
// or ForCancel polls the token at every chunk-claim boundary, so once the
// token fires the loop drains its remaining chunks without running the body
// — at most the chunks already in flight (O(grain) work each) still
// execute — and the launch returns through the normal join with no leaked
// goroutines: pool workers simply find no further claimable work and go
// back to scanning the board.
//
// The nil *Cancel is a valid token that never fires; every method is
// nil-safe, so "no cancellation" costs one pointer test per poll and the
// non-cancellable entry points simply pass nil. Cancellation is sticky:
// once fired a token stays fired, and the first non-nil cause wins.
//
// Cancel carries no deadline machinery of its own — callers translate
// context.Context (or any other signal) into one Cancel call; see
// internal/core's Canceler for the context binding used by the algorithm
// drivers.
type Cancel struct {
	fired atomic.Bool
	mu    sync.Mutex
	cause error
}

// NewCancel returns a fresh, unfired token.
func NewCancel() *Cancel { return &Cancel{} }

// Fire cancels the token. The first call's cause is kept (nil is a valid
// cause meaning "canceled without explanation"); later calls are no-ops.
// Safe to call from any goroutine, multiple times, and on a nil receiver.
func (c *Cancel) Fire(cause error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if !c.fired.Load() {
		c.cause = cause
		// The store is inside the lock so Cause never observes the flag
		// set with the cause still unwritten.
		c.fired.Store(true)
	}
	c.mu.Unlock()
}

// Canceled reports whether the token has fired. One atomic load — this is
// the poll the scheduler issues per chunk claim, and the reason the token
// is a flag rather than a channel.
func (c *Cancel) Canceled() bool { return c != nil && c.fired.Load() }

// Cause returns the cause recorded by the winning Fire call, or nil while
// the token has not fired (or fired with a nil cause).
func (c *Cancel) Cause() error {
	if c == nil || !c.fired.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// ForRangeCancel is ForRange with a cancellation token: body runs over
// grain-aligned chunks of [0,n) until every chunk is done or c fires.
// After c fires, chunks not yet started are drained without running the
// body (in-flight chunks complete), and the call returns normally — the
// caller is expected to notice the cancellation itself (c.Canceled());
// a partially-executed loop makes no completeness promise. c == nil is
// exactly ForRange.
func ForRangeCancel(c *Cancel, n, grain int, body func(lo, hi int)) {
	ForRangeTeam(c, n, grain, nil, func(_, lo, hi int) { body(lo, hi) })
}

// ForCancel is For with a cancellation token; see ForRangeCancel for the
// drain semantics.
func ForCancel(c *Cancel, n, grain int, body func(i int)) {
	ForRangeCancel(c, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}
