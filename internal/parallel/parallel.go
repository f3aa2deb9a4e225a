// Package parallel implements the fork-join runtime that underpins every
// algorithm in this library. It plays the role ParlayLib plays for the C++
// PASGAL: nested fork-join via Do, dynamically scheduled parallel loops via
// For/ForRange, and the usual work-efficient primitives (reduce, scan, pack,
// sort) built on top of them.
//
// # Scheduling
//
// The runtime is a persistent work-stealing scheduler. A pool of worker
// goroutines is started lazily on the first multi-worker launch and resized
// by SetWorkers; idle workers park on a condition variable (one futex wait
// in steady state) and are signalled when new work appears, so an idle pool
// costs nothing and a loop launch costs no goroutine spawns.
//
// A loop launch splits its iteration space into grain-aligned chunks and
// pre-splits the chunk range into one contiguous sub-range per participant
// (the caller plus up to min(workers, chunks)-1 helpers). Each participant
// claims one chunk at a time off the front of its own range with a CAS;
// when its range is empty it steals the back half of a victim's remaining
// range (lazy binary splitting) and continues. The caller always
// participates, so a launch whose helpers never arrive — the small-frontier
// regime of large-diameter graphs — degenerates to a near-serial loop with
// one CAS per chunk and no synchronization beyond the final join.
//
// Do is a real fork: the additional arms are published for stealing, the
// first arm runs inline on the caller, and at the join the caller steals
// unclaimed arms back and runs them itself, blocking only on arms another
// worker is actively executing. Do arms and loop bodies must not
// synchronize with each other (no channel hand-offs between two arms of
// the same Do): a blocked arm can block the worker executing it, and the
// scheduler guarantees progress only for tasks that run to completion on
// their own.
//
// Loops that fit in a single chunk run inline on the caller with no
// scheduling at all. Panics in loop bodies and Do arms are caught, the join
// completes, and the first panic value is re-raised exactly once from the
// launching call.
//
// Scheduling volume (launches, steals, parks, wakes) is observable through
// SchedStats and mirrored into an optional trace.Tracer; "parallelism comes
// at a cost" is an explicit object of study in this library, and the
// counters are how that cost is measured. See docs/SCHEDULER.md for the
// stealing protocol and the memory-ordering argument.
package parallel

import (
	"runtime"
	"sync/atomic"

	"pasgal/internal/trace"
)

// workers holds the current worker-team size. It defaults to GOMAXPROCS and
// can be overridden (e.g. by the scaling experiments in Figure 1).
var workers atomic.Int32

func init() {
	workers.Store(int32(runtime.GOMAXPROCS(0)))
}

// Workers returns the number of workers parallel loops will use.
func Workers() int { return int(workers.Load()) }

// SetWorkers overrides the worker-team size. p < 1 resets to GOMAXPROCS.
// It returns the previous value. If the worker pool is already running it
// is resized: a fresh generation of p workers is started and the old
// generation retires as soon as each worker finishes the task it is
// executing. In-flight loops keep their already-split chunk ranges and
// complete on the callers and surviving claimants, so resizing never drops
// or duplicates a chunk.
func SetWorkers(p int) int {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	prev := int(workers.Swap(int32(p)))
	sched.resize(p)
	return prev
}

// tracer, when set, mirrors the scheduling counters into a trace.Tracer.
// The runtime is package-global (loops launch from anywhere), so the hook
// is too; one atomic pointer load per event is the entire overhead, and a
// nil load simply makes every tracer method a no-op.
var tracer atomic.Pointer[trace.Tracer]

// SetTracer installs (or, with nil, removes) the tracer that receives
// loop/fork/steal/park counts. It returns the previously installed tracer.
func SetTracer(t *trace.Tracer) *trace.Tracer {
	return tracer.Swap(t)
}

// ForRange runs body over [0,n) split into half-open grain-aligned chunks
// [lo,hi): every call receives exactly [c*grain, min((c+1)*grain, n)) for
// one chunk index c, so callers may index per-chunk state with lo/grain.
// grain <= 0 selects an automatic chunk size. Chunks are distributed
// dynamically by work stealing. Panics in the body are propagated to the
// caller after all outstanding chunks finish.
func ForRange(n, grain int, body func(lo, hi int)) {
	ForRangeTeam(nil, n, grain, nil, func(_, lo, hi int) { body(lo, hi) })
}

// ForRangeTeam is the one launch path behind ForRange, ForRangeCancel and
// Collect. Its body also learns p, the participant running the chunk:
// start (when non-nil) is called on the caller with the team size k
// before any chunk runs, every p is in [0, k), and no two chunks running
// at once share a p (the caller is 0, each helper holds a ticket). State
// kept per participant in a k-long table indexed by p needs no lock, and
// k, unlike a Workers() read, cannot race with SetWorkers. Neither start
// nor body runs when n <= 0 or c has fired; c may be nil (never cancels),
// and runLoop polls it per chunk claim.
func ForRangeTeam(c *Cancel, n, grain int, start func(k int), body func(p, lo, hi int)) {
	if n <= 0 || c.Canceled() {
		return
	}
	p := Workers()
	if grain <= 0 {
		grain = defaultGrain(n, p)
	}
	chunks := (n + grain - 1) / grain
	if chunks > maxChunks {
		panic("parallel: loop splits into more than 2^32-1 chunks; use a larger grain")
	}
	k := min(p, chunks)
	if start != nil {
		start(k)
	}
	if chunks <= 1 {
		statInline.Add(1)
		tracer.Load().LoopInline()
		body(0, 0, n)
		return
	}
	statLoops.Add(1)
	statForks.Add(int64(k - 1))
	tracer.Load().Loop(int64(k-1), int64(chunks))

	j := &job{body: body, grain: grain, n: n, cancel: c, done: make(chan struct{})}
	j.pending.Store(int64(chunks))
	j.slots = make([]slot, k)
	per, rem := chunks/k, chunks%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + per
		if i < rem {
			hi++
		}
		j.slots[i].bounds.Store(pack(lo, hi))
		lo = hi
	}

	if k == 1 {
		// One participant: the caller drains every chunk itself; nothing to
		// publish and nobody to wake.
		j.runLoop(0)
	} else {
		sched.ensure()
		s, ok := sched.publish(j)
		j.runLoop(0)
		if ok {
			sched.unpublish(s, j)
			if j.pending.Load() > 0 {
				<-j.done
			}
		}
	}
	if j.panicked.Load() {
		panic(j.panicVal)
	}
}

// For runs body(i) for every i in [0,n) in parallel. grain <= 0 selects an
// automatic chunk size.
func For(n, grain int, body func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Do runs the given functions as parallel fork-join tasks and waits for all
// of them. With two arguments it is the classic binary fork: the second arm
// is published for stealing, the first runs inline on the caller, and at
// the join any arm no worker has claimed is stolen back and run inline.
// The first panic value raised by any arm is re-raised exactly once after
// every arm has finished.
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	statLoops.Add(1)
	statForks.Add(int64(len(fns) - 1))
	tracer.Load().Loop(int64(len(fns)-1), int64(len(fns)))

	j := &job{arms: make([]forkArm, len(fns)-1), done: make(chan struct{})}
	for i := range j.arms {
		j.arms[i].fn = fns[i+1]
	}
	j.pending.Store(int64(len(fns) - 1))

	sched.ensure()
	s, ok := sched.publish(j)
	j.exec1(fns[0])
	// Join: steal back every arm no worker has claimed, newest first, and
	// run it inline.
	for i := len(j.arms) - 1; i >= 0; i-- {
		a := &j.arms[i]
		if a.state.CompareAndSwap(armPending, armClaimed) {
			j.runArm(a)
		}
	}
	if ok {
		sched.unpublish(s, j)
	}
	if j.pending.Load() > 0 {
		<-j.done
	}
	if j.panicked.Load() {
		panic(j.panicVal)
	}
}
