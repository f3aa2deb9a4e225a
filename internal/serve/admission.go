package serve

import (
	"context"
	"sync/atomic"
)

// admission is the semaphore-based admission controller: at most cap
// queries run their parallel computation at once (one by default, so
// each kernel has the whole worker pool). Requests past the bound queue
// on the semaphore channel in arrival order; a queued request whose
// context dies (client disconnect, ?timeout=) abandons the wait without
// ever holding a slot.
//
// Two acquisition paths exist on purpose. Direct queries acquire with
// their request context. Coalesced batches acquire through acquireBatch —
// no context, because a batch must run for all its lane-mates regardless
// of any single submitter's fate — and charge ONE slot for up to 64
// queries, which is exactly why coalescing multiplies throughput under
// admission control.
type admission struct {
	cap int
	sem chan struct{}

	// Gauges and counters, all exported on /metrics. inflight/peak are
	// the live and high-water occupancy — the serving conformance suite
	// asserts peak never exceeds cap.
	inflight  atomic.Int64
	peak      atomic.Int64
	admitted  atomic.Int64
	waited    atomic.Int64
	abandoned atomic.Int64
}

func newAdmission(capacity int) *admission {
	return &admission{cap: capacity, sem: make(chan struct{}, capacity)}
}

// acquire claims one slot, blocking while the controller is full. It
// returns ctx's cause if the context dies first (the slot is then NOT
// held and release must not be called).
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
	default:
		// Full: queue on the semaphore, racing the context.
		a.waited.Add(1)
		select {
		case a.sem <- struct{}{}:
		case <-ctx.Done():
			a.abandoned.Add(1)
			return context.Cause(ctx)
		}
	}
	a.admit()
	return nil
}

// acquireBatch claims one slot for a coalescer batch flush, blocking
// unconditionally: the batch aggregates many submitters and must run.
func (a *admission) acquireBatch() {
	select {
	case a.sem <- struct{}{}:
	default:
		a.waited.Add(1)
		a.sem <- struct{}{}
	}
	a.admit()
}

func (a *admission) admit() {
	a.admitted.Add(1)
	in := a.inflight.Add(1)
	for {
		cur := a.peak.Load()
		if in <= cur || a.peak.CompareAndSwap(cur, in) {
			return
		}
	}
}

// release returns a slot claimed by a successful acquire/acquireBatch.
func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.sem
}
