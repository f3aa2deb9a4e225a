// Package hashbag implements the parallel hash bag of Wang et al.
// ("Parallel Strong Connectivity Based on Faster Reachability", and the
// PASGAL paper's frontier structure): a concurrent set of vertex ids that
// supports lock-free parallel insertion and a parallel extract-all.
//
// The bag is a sequence of geometrically growing chunks of slots. Inserts
// hash into the active chunk and linearly probe; when a sampled counter
// estimates the chunk is ~half full (or a probe sequence gets long),
// insertion moves on to the next (twice as large) chunk. Extraction packs
// all occupied slots across chunks and resets them. Compared to a flat
// dense boolean array over all n vertices, the bag costs O(inserted) rather
// than O(n) per round, which is what makes tiny frontiers on large-diameter
// graphs affordable.
package hashbag

import (
	"sync/atomic"

	"pasgal/internal/parallel"
)

const (
	empty = ^uint32(0) // slot sentinel; vertex ids must be < 2^32-1

	// One in 2^sampleShift inserts bumps the shared occupancy counter; the
	// estimate is counter << sampleShift. Sampling keeps the counter from
	// becoming a contention hot spot, as in the paper.
	sampleShift = 3

	defaultChunk = 1 << 9

	// maxLevels chunk levels cover 64 * 2^maxLevels slots, far beyond any
	// uint32 vertex universe.
	maxLevels = 28
)

// Bag is a concurrent growable set of uint32 ids. The zero value is not
// usable; call New. Insert may be called concurrently from many
// goroutines; Extract/Reset must not race with Insert.
type Bag struct {
	levels [maxLevels]atomic.Pointer[[]uint32]
	active atomic.Int32
	// nonEmpty is a flag, not an insert count: the first insert after a
	// reset stores 1 and every other insert only loads it, so inserting
	// workers do not write a shared cache line. No caller needs more than
	// "anything in there?".
	nonEmpty atomic.Uint32
	initLen  int
	// est is the one field inserts write: one in 2^sampleShift bumps it.
	// The pad keeps it 64 bytes from active and nonEmpty, which every
	// insert loads, so a bump does not pull their line away from the other
	// workers (TestBagLayout).
	_   [64]byte
	est atomic.Int64
}

// New returns a bag whose first chunk holds initSlots slots (rounded up to
// a power of two, minimum 64). initSlots <= 0 selects a default.
func New(initSlots int) *Bag {
	if initSlots <= 0 {
		initSlots = defaultChunk
	}
	sz := 64
	for sz < initSlots {
		sz *= 2
	}
	b := &Bag{initLen: sz}
	c := newChunk(sz)
	b.levels[0].Store(&c)
	return b
}

func newChunk(sz int) []uint32 {
	c := make([]uint32, sz)
	for i := range c {
		c[i] = empty
	}
	return c
}

// hash64 is the splitmix64 finalizer; good avalanche, cheap.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Insert adds v to the bag. Duplicate values are allowed (the bag is a
// multiset of inserts; callers dedupe via their own claimed/visited flags,
// as the PASGAL algorithms do). Safe for concurrent use.
func (b *Bag) Insert(v uint32) {
	for {
		ai := int(b.active.Load())
		cp := b.levels[ai].Load()
		if cp == nil {
			continue // chunk being published; retry
		}
		c := *cp
		mask := uint64(len(c) - 1)
		h := hash64(uint64(v) ^ uint64(ai)<<32)
		probes := 0
		for {
			slot := int(h & mask)
			if atomic.LoadUint32(&c[slot]) == empty &&
				atomic.CompareAndSwapUint32(&c[slot], empty, v) {
				if b.nonEmpty.Load() == 0 {
					b.nonEmpty.Store(1)
				}
				if h&((1<<sampleShift)-1) == 0 &&
					b.est.Add(1)<<sampleShift >= int64(len(c)/2) {
					b.grow(ai)
				}
				return
			}
			h = hash64(h)
			probes++
			if probes >= 16 || probes >= len(c) {
				// This probe path is saturated: advance to the next chunk
				// and retry there.
				b.grow(ai)
				break
			}
		}
	}
}

// grow publishes chunk level ai+1 (if needed) and advances the active
// counter past ai. Safe to race: exactly one CAS on each field wins.
func (b *Bag) grow(ai int) {
	if ai+1 >= maxLevels {
		panic("hashbag: exceeded maximum capacity")
	}
	if b.levels[ai+1].Load() == nil {
		c := newChunk(b.initLen << (ai + 1))
		b.levels[ai+1].CompareAndSwap(nil, &c)
	}
	// Publish-then-bump: once active reads ai+1, the chunk is visible.
	b.active.CompareAndSwap(int32(ai), int32(ai+1))
	b.est.Store(0)
}

// Empty reports whether no insert has succeeded since the last
// Extract/Reset.
func (b *Bag) Empty() bool { return b.nonEmpty.Load() == 0 }

// seqCutoff is the chunk size below which extraction and reset run
// sequentially: spawning a parallel loop over a few thousand slots costs
// more than the scan itself, and small-chunk extraction is the hot path of
// frontier-based algorithms on large-diameter graphs.
const seqCutoff = 1 << 13

// Extract returns all values currently in the bag (in arbitrary order) and
// resets it to empty. Not safe to run concurrently with Insert.
func (b *Bag) Extract() []uint32 {
	ai := int(b.active.Load())
	var out []uint32
	for ci := 0; ci <= ai; ci++ {
		cp := b.levels[ci].Load()
		if cp == nil {
			continue
		}
		c := *cp
		if len(c) <= seqCutoff {
			for i, v := range c {
				if v != empty {
					out = append(out, v)
					c[i] = empty
				}
			}
			continue
		}
		part := parallel.Pack(c, func(i int) bool { return c[i] != empty })
		if out == nil {
			out = part
		} else {
			out = append(out, part...)
		}
		parallel.Fill(c, empty)
	}
	b.active.Store(0)
	b.est.Store(0)
	b.nonEmpty.Store(0)
	return out
}

// Reset empties the bag without returning its contents.
func (b *Bag) Reset() {
	ai := int(b.active.Load())
	for ci := 0; ci <= ai; ci++ {
		cp := b.levels[ci].Load()
		if cp == nil {
			continue
		}
		c := *cp
		if len(c) <= seqCutoff {
			for i := range c {
				c[i] = empty
			}
			continue
		}
		parallel.Fill(c, empty)
	}
	b.active.Store(0)
	b.est.Store(0)
	b.nonEmpty.Store(0)
}
