package parallel

import (
	"sync"
	"sync/atomic"
)

// maxChunks bounds a loop's chunk count: chunk indices are packed two to a
// uint64 in the range slots.
const maxChunks = 1<<32 - 1

// A job is one in-flight fork-join launch: either a chunked loop (body,
// grain, n, slots set) or a Do fork set (arms set). Exactly one of the two
// shapes is populated.
//
// Loop ownership protocol: slots[i] holds a packed [lo,hi) range of chunk
// indices. Participant i (the caller is always participant 0; pool workers
// acquire participant tickets) claims one chunk at a time off the front of
// slots[i] with a CAS. When its slot is empty it steals the back half of a
// random victim's range, keeps the first stolen chunk, and deposits the
// rest into its own slot. Deposits are plain atomic stores: only the slot's
// owner writes a non-empty range into an empty slot, and takeOne/stealHalf
// never CAS an empty slot, so the store cannot race with a successful CAS.
//
// Join protocol: pending counts unfinished chunks (or unfinished arms for a
// fork set). Every claimed chunk is executed (or skipped, after a panic)
// and then decrements pending exactly once; whoever moves pending to zero
// closes done. The launching call waits on done only when work it could not
// claim back is still running on another worker.
type job struct {
	body    func(p, lo, hi int) // p: the running participant (runLoop's home)
	grain   int
	n       int
	slots   []slot
	tickets atomic.Int32 // helper tickets handed out (caller holds slot 0)

	arms []forkArm

	// cancel, when non-nil, is polled once per chunk claim: a fired token
	// makes runLoop drain remaining chunks without executing the body,
	// exactly like the post-panic path. Do arms are not cancellable — a
	// fork's arms are a fixed, small set the caller steals back at the
	// join, so there is nothing meaningful to shed.
	cancel *Cancel

	pending   atomic.Int64
	done      chan struct{}
	panicked  atomic.Bool
	panicOnce sync.Once
	panicVal  any
}

// forkArm is one stealable Do arm.
type forkArm struct {
	fn    func()
	state atomic.Int32
}

const (
	armPending int32 = iota
	armClaimed
)

// slot holds one participant's remaining chunk range, packed lo<<32|hi,
// padded so neighboring participants' CAS traffic does not share a cache
// line.
type slot struct {
	bounds atomic.Uint64
	_      [7]uint64
}

func pack(lo, hi int) uint64     { return uint64(lo)<<32 | uint64(hi) }
func unpack(b uint64) (int, int) { return int(b >> 32), int(b & 0xffffffff) }

// takeOne claims the front chunk of the slot's range.
func (s *slot) takeOne() (int, bool) {
	for {
		b := s.bounds.Load()
		lo, hi := unpack(b)
		if lo >= hi {
			return 0, false
		}
		if s.bounds.CompareAndSwap(b, pack(lo+1, hi)) {
			return lo, true
		}
	}
}

// stealHalf removes and returns the back half of the slot's range (the
// whole range when only one chunk remains; the victim keeps the larger
// half otherwise).
func (s *slot) stealHalf() (lo, hi int, ok bool) {
	for {
		b := s.bounds.Load()
		slo, shi := unpack(b)
		size := shi - slo
		if size <= 0 {
			return 0, 0, false
		}
		mid := slo + (size+1)/2
		if size == 1 {
			mid = slo
		}
		if s.bounds.CompareAndSwap(b, pack(slo, mid)) {
			return mid, shi, true
		}
	}
}

// wanted reports how many helpers a freshly published job can use, for the
// publisher's wake call.
func (j *job) wanted() int {
	if j.arms != nil {
		return len(j.arms)
	}
	return len(j.slots) - 1
}

// help lets a pool worker join j. Loop helpers are bounded by the
// participant slots the launch pre-split (the caller holds slot 0); fork
// arms are claimed individually. It reports whether any work was executed.
func (j *job) help(w *worker) bool {
	if j.arms != nil {
		return j.helpFork()
	}
	t := int(j.tickets.Add(1))
	if t >= len(j.slots) {
		j.tickets.Add(-1)
		return false
	}
	return j.runLoop(t)
}

// helpFork claims and runs every still-pending arm.
func (j *job) helpFork() bool {
	did := false
	for i := range j.arms {
		a := &j.arms[i]
		if a.state.Load() == armPending && a.state.CompareAndSwap(armPending, armClaimed) {
			statSteals.Add(1)
			tracer.Load().Steal()
			j.runArm(a)
			did = true
		}
	}
	return did
}

// runLoop is one participant's scheduling loop: drain the home slot one
// chunk at a time, then steal halves of other participants' remaining
// ranges. Returns when no claimable chunk is left anywhere, reporting
// whether it executed (or drained) at least one chunk.
func (j *job) runLoop(home int) bool {
	rng := uint64(home)*0x9e3779b97f4a7c15 | 1
	did := false
	for {
		c, ok := j.slots[home].takeOne()
		if !ok {
			c, ok = j.steal(home, &rng)
			if !ok {
				return did
			}
		}
		did = true
		lo := c * j.grain
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		// After a panic — or once the job's cancel token fires — the
		// remaining chunks are drained without running the body, so the
		// join completes in O(chunks) claim work and the launch returns
		// promptly. This poll at the chunk-claim boundary (takeOne or
		// stealHalf above) is the entire per-chunk cancellation cost: one
		// nil test plus, for cancellable loops, one atomic load.
		if !j.panicked.Load() && !j.cancel.Canceled() {
			j.exec(home, lo, hi)
		}
		if j.pending.Add(-1) == 0 {
			close(j.done)
			return true
		}
	}
}

// steal scans the other slots from a random offset, moves the back half of
// the first non-empty range into the (empty) home slot, and returns the
// first stolen chunk.
func (j *job) steal(home int, rng *uint64) (int, bool) {
	k := len(j.slots)
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	off := int(x % uint64(k))
	for i := 0; i < k; i++ {
		v := off + i
		if v >= k {
			v -= k
		}
		if v == home {
			continue
		}
		lo, hi, ok := j.slots[v].stealHalf()
		if !ok {
			continue
		}
		statSteals.Add(1)
		tracer.Load().Steal()
		if hi-lo > 1 {
			j.slots[home].bounds.Store(pack(lo+1, hi))
		}
		return lo, true
	}
	return 0, false
}

// exec runs one chunk of the loop body on participant p, capturing the
// first panic.
func (j *job) exec(p, lo, hi int) {
	defer j.recoverInto()
	j.body(p, lo, hi)
}

// exec1 runs a Do arm inline on the caller, capturing the first panic.
func (j *job) exec1(fn func()) {
	defer j.recoverInto()
	fn()
}

// runArm executes a claimed fork arm and retires it.
func (j *job) runArm(a *forkArm) {
	j.exec1(a.fn)
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
}

// recoverInto records a panic value into the job exactly once (the first
// panicking chunk/arm wins) and marks the job panicked. The value is read
// by the launching call after the join, which the panicked flag's
// store/load pair orders.
func (j *job) recoverInto() {
	if r := recover(); r != nil {
		j.panicOnce.Do(func() { j.panicVal = r })
		j.panicked.Store(true)
	}
}
