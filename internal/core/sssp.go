package core

import (
	"slices"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// InfWeight is the "unreachable" weighted distance (matches seq.InfWeight).
const InfWeight = ^uint64(0)

// StepPolicy chooses the next processing threshold in the stepping
// framework (Dong et al.): given the live far set — its size and a sample
// of its tentative distances — and what the previous phase did, it returns
// θ: vertices with dist <= θ are processed this phase. A policy is a pure
// function of its arguments.
type StepPolicy interface {
	// Threshold picks θ >= live.Min(). live is non-empty.
	Threshold(live Live, last LastPhase) uint64
	// Name identifies the policy in benchmark output.
	Name() string
}

// liveSampleCap bounds the distances a Live samples.
const liveSampleCap = 1024

// Live is the live far set as a phase boundary hands it to the policy:
// its size and a stride sample of at most 1 024 of its tentative
// distances, every (|live|/1024 + 1)-th entry in far-set order. The sample
// is sorted only when a quantile is asked for, so a policy that needs the
// extremes alone (Δ-stepping's Min, ρ-stepping's Max when ρ >= Len) costs
// no sort.
type Live struct {
	n        int
	min, max uint64
	s        *liveSample
}

// liveSample is the sample a Live and its copies share, so the one sort
// is shared too.
type liveSample struct {
	d      []uint64
	sorted bool
}

// newLive wraps a non-empty stride sample of n live distances.
func newLive(sample []uint64, n int) Live {
	lo, hi := sample[0], sample[0]
	for _, d := range sample[1:] {
		lo = min(lo, d)
		hi = max(hi, d)
	}
	return Live{n: n, min: lo, max: hi, s: &liveSample{d: sample}}
}

// Len is |live|, the number of live far entries.
func (l Live) Len() int { return l.n }

// Min is the smallest sampled distance. Every live distance lies past the
// previous phase's θ, so θ >= Min guarantees progress.
func (l Live) Min() uint64 { return l.min }

// Max is the largest sampled distance.
func (l Live) Max() uint64 { return l.max }

// Quantile estimates the rank-th smallest live distance: the sorted
// sample's entry at index len·rank/Len, clamped to the sample. The first
// call sorts the sample.
func (l Live) Quantile(rank int) uint64 {
	d := l.s.d
	if !l.s.sorted {
		slices.Sort(d)
		l.s.sorted = true
	}
	if rank >= l.n {
		return d[len(d)-1]
	}
	return d[len(d)*max(rank, 0)/l.n]
}

// LastPhase is what the stepping driver reports to the policy about the
// phase before the one it is choosing θ for. Before the first phase (the
// source alone, at θ = 0) it is {Width: 0, Taken: 1}.
type LastPhase struct {
	// Width is the previous phase's θ − live.Min().
	Width uint64
	// Taken is the number of frontier entries the previous phase
	// extracted: the sum of its rounds' frontier sizes.
	Taken int
}

// DeltaStepping processes vertices in fixed-width distance bands, like
// Meyer & Sanders' Δ-stepping.
type DeltaStepping struct{ Delta uint64 }

// Threshold implements StepPolicy: the end of live.Min()'s Δ-band,
// (Min/Δ + 1)·Δ, saturated to InfWeight. The saturation matters: for
// tentative distances within Δ of MaxUint64 the band-end product wraps in
// uint64 and would return θ < Min, stalling the phase loop's progress
// guarantee.
func (p DeltaStepping) Threshold(live Live, _ LastPhase) uint64 {
	d := p.Delta
	if d == 0 {
		d = 1
	}
	q := live.Min() / d
	if q >= InfWeight/d {
		// (q+1)*d would exceed (or wrap past) MaxUint64.
		return InfWeight
	}
	return (q + 1) * d
}

// Name implements StepPolicy.
func (DeltaStepping) Name() string { return "delta" }

// RhoStepping aims to process the ~Rho closest active vertices per phase —
// the paper's ρ-stepping, PASGAL's default SSSP configuration. Rho <= 0
// selects the default, 2^14.
type RhoStepping struct{ Rho int }

// Threshold implements StepPolicy. θ is the smaller of two bounds:
//
//   - live.Quantile(ρ), the ρ-th smallest live distance estimated through
//     the sample, or live.Max() when ρ >= live.Len() — then the sample is
//     never sorted. Vertices discovered past it wait for a later phase: an
//     unbounded θ would degrade the phase into asynchronous Bellman–Ford
//     with unbounded re-work.
//   - live.Min() + w, saturated to InfWeight, where the band width w
//     follows the previous phase: 2·last.Width (at least 1) when it
//     extracted fewer than ρ/2 entries, last.Width/2 when it extracted more
//     than 2ρ, and last.Width otherwise. The first bound caps where a phase
//     starts, not what it drains: the vertices a phase discovers under θ
//     join it, so on a low-diameter graph one θ = Max band can hold most of
//     the graph and be drained with far more re-relaxation than ρ entries
//     at a time. The width feedback holds each phase near ρ extractions.
func (p RhoStepping) Threshold(live Live, last LastPhase) uint64 {
	rho := p.Rho
	if rho <= 0 {
		rho = 1 << 14
	}
	theta := live.Max()
	if rho < live.Len() {
		theta = live.Quantile(rho)
	}
	w := last.Width
	switch {
	case 2*last.Taken < rho:
		w = max(1, min(w, InfWeight/2)*2)
	case last.Taken-rho > rho: // last.Taken > 2ρ without overflow
		w /= 2
	}
	// theta >= live.Min(), so the sum cannot wrap when it is taken.
	if lo := live.Min(); w < theta-lo {
		theta = lo + w
	}
	return theta
}

// Name implements StepPolicy.
func (RhoStepping) Name() string { return "rho" }

// BellmanFordPolicy processes every active vertex every phase.
type BellmanFordPolicy struct{}

// Threshold implements StepPolicy.
func (BellmanFordPolicy) Threshold(Live, LastPhase) uint64 { return InfWeight }

// Name implements StepPolicy.
func (BellmanFordPolicy) Name() string { return "bf" }

// SSSP computes single-source shortest paths on a weighted graph with the
// stepping-algorithm framework (see stepping): a pluggable threshold
// policy, atomic write-min relaxations, and VGC local searches.
//
// policy == nil selects ρ-stepping with its default ρ.
//
// Every graph.Adjacency representation is accepted as long as it carries
// weights: the frontier processor ranges over graph.Scanner's arc lists.
// A source at or past the vertex count is an error.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation SSSP
// returns (nil, partial Metrics, ErrCanceled/ErrDeadline).
func SSSP(a graph.Adjacency, src uint32, policy StepPolicy, opt Options) ([]uint64, *Metrics, error) {
	if !a.HasWeights() {
		panic("core: SSSP requires a weighted graph")
	}
	dist, met, err := stepping("sssp", a, src, graph.None, policy, opt)
	if err != nil {
		return nil, met, err
	}
	out := make([]uint64, len(dist))
	parallel.For(len(dist), 0, func(i int) { out[i] = dist[i].Load() })
	return out, met, nil
}

// farEntry is a live far-set vertex with the distance the phase boundary
// read for it. No relaxation runs at a boundary, so d stays exact until the
// boundary hands the entries on.
type farEntry struct {
	v uint32
	d uint64
}

// boundary is the phase boundary's working memory. Every buffer in it is
// dead by the next boundary — the frontier it produced has been drained
// and the carry read again — so one set, grown to the largest far set,
// serves every phase of a run.
type boundary struct {
	live, spare []farEntry // the live pairs; scratch for the parallel pass and the split
	verts       []uint32   // the next frontier and carry, back to back
}

// liveFar returns the entries of cand that still need a scan and lie under
// bound, as (v, dist[v]) pairs in cand's order, and the largest of their
// distances. It reads dist[v] and scanned[v] once per entry: inline on the
// caller below parallel.SeqCutoff (every phase of a large-diameter graph),
// in parallel above it.
func (b *boundary) liveFar(cand []uint32, dist, scanned []atomic.Uint64, bound uint64) ([]farEntry, uint64) {
	if len(cand) < parallel.SeqCutoff {
		var top uint64
		b.live, top = keepLive(slices.Grow(b.live[:0], len(cand)), cand, dist, scanned, bound)
		return b.live, top
	}
	return b.liveFarParallel(cand, dist, scanned, bound)
}

// keepLive appends the live entries of cand to live and returns it with
// their largest distance (0 when none is live).
func keepLive(live []farEntry, cand []uint32, dist, scanned []atomic.Uint64, bound uint64) ([]farEntry, uint64) {
	top := uint64(0)
	for _, v := range cand {
		if d := dist[v].Load(); d < scanned[v].Load() && d < bound {
			live = append(live, farEntry{v, d})
			top = max(top, d)
		}
	}
	return live, top
}

// liveFarParallel is liveFar's parallel path: every chunk filters its
// slice of cand into its own slice of the scratch buffer, and the chunks
// are then copied together in order.
func (b *boundary) liveFarParallel(cand []uint32, dist, scanned []atomic.Uint64, bound uint64) ([]farEntry, uint64) {
	n := len(cand)
	grain := max(1, n/(8*parallel.Workers()))
	chunks := (n + grain - 1) / grain
	b.spare = slices.Grow(b.spare[:0], n)[:n]
	scratch := b.spare
	counts := make([]int, chunks)
	tops := make([]uint64, chunks)
	parallel.ForRange(n, grain, func(lo, hi int) {
		kept, top := keepLive(scratch[lo:lo:hi], cand[lo:hi], dist, scanned, bound)
		counts[lo/grain], tops[lo/grain] = len(kept), top
	})
	at := make([]int, chunks)
	total := 0
	for c, k := range counts {
		at[c] = total
		total += k
	}
	b.live = slices.Grow(b.live[:0], total)[:total]
	live := b.live
	parallel.ForRange(n, grain, func(lo, hi int) {
		c := lo / grain
		copy(live[at[c]:], scratch[lo:lo+counts[c]])
	})
	return live, slices.Max(tops)
}

// sampleLive hands a non-empty live set to the policy: every
// (|live|/1024 + 1)-th distance, in live's order.
func sampleLive(live []farEntry) Live {
	stride := len(live)/liveSampleCap + 1
	sample := make([]uint64, 0, min(len(live), liveSampleCap))
	for i := 0; i < len(live); i += stride {
		sample = append(sample, live[i].d)
	}
	return newLive(sample, len(live))
}

// split splits the live set by d <= theta into the next frontier and the
// next carry, each in live's order. top is the largest live distance: when
// theta reaches it the frontier is all of live and nothing is partitioned.
func (b *boundary) split(live []farEntry, theta, top uint64) (f, carry []uint32) {
	near := len(live)
	if theta < top {
		b.spare = slices.Grow(b.spare[:0], len(live))[:len(live)]
		parts := b.spare
		near = int(parallel.PartitionByKey(parts, live, 2, func(e farEntry) uint32 {
			if e.d <= theta {
				return 0
			}
			return 1
		})[1])
		live = parts
	}
	b.verts = slices.Grow(b.verts[:0], len(live))[:len(live)]
	vs := b.verts
	if len(live) < parallel.SeqCutoff {
		for i, e := range live {
			vs[i] = e.v
		}
	} else {
		parallel.For(len(live), 0, func(i int) { vs[i] = live[i].v })
	}
	return vs[:near:near], vs[near:]
}

// claimScan stamps u as scanned at tentative distance du and reports
// whether the caller should do the scan: false when a scan at du or better
// has already started. The stamp is a write-min, not a Swap: a task holding
// a stale du must not overwrite the stamp of a fresher scan, or the vertex
// would read as unscanned at a phase boundary with a distance at or under
// the previous θ and could drag θ backwards.
func claimScan(stamp *atomic.Uint64, du uint64) bool {
	for {
		s := stamp.Load()
		if s <= du {
			return false
		}
		if stamp.CompareAndSwap(s, du) {
			return true
		}
	}
}

// stepping is the stepping-framework driver behind SSSP (dst ==
// graph.None) and PointToPoint: a frontier of vertices at or under the
// threshold θ processed round by round with VGC local searches (a
// relaxation that lands at or under θ keeps expanding in-task instead of
// round-tripping through the next frontier), and a far set of everything else
// from which each phase boundary picks the next θ. It returns the
// tentative distances, final for every vertex closer than dst (for all of
// them when dst is graph.None).
//
// Every unit of work is done once:
//
//   - scanned[u] is the smallest distance at which a scan of u has started
//     (claimScan). Frontiers are multisets, so u can be extracted twice at
//     one distance; distances only decrease, so "already stamped at du"
//     means every out-arc of u was or is being relaxed with du, and the
//     second extraction skips the arc list. dist[v] < scanned[v] is
//     exactly "v still needs a scan".
//   - The far set is the carry list plus the phase's fresh discoveries.
//     A phase boundary reads each entry's distance once (liveFar), keeps
//     the live ones (still need a scan, and closer than dst) as (v, d)
//     pairs, samples θ from those alone, and splits them by θ into the next
//     round's frontier and the next carry (split).
//   - A relaxation that lands past θ files the vertex as a far discovery
//     only when it is the search's first discovery of it (see the insert
//     site), in the discovering participant's far list.
func stepping(algo string, a graph.Adjacency, src, dst uint32, policy StepPolicy, opt Options) ([]atomic.Uint64, *Metrics, error) {
	if policy == nil {
		policy = RhoStepping{}
	}
	opt = opt.Normalized()
	met := NewMetrics(opt, algo)
	cl := NewCanceler(opt, met)
	defer cl.Close()
	n := a.NumVertices()
	if err := checkVertex("source", src, n); err != nil {
		return nil, met, err
	}
	// The pruning bound: nothing at or past the best known distance to dst
	// can lie on a better src→dst path (weights are non-negative). It is
	// dist[dst] itself; SSSP reads a constant InfWeight through the same
	// pointer.
	bound := new(atomic.Uint64)
	bound.Store(InfWeight)
	dist := make([]atomic.Uint64, n)
	if dst != graph.None {
		bound = &dist[dst]
	}
	scanned := make([]atomic.Uint64, n)
	parallel.For(n, 0, func(i int) {
		dist[i].Store(InfWeight)
		scanned[i].Store(InfWeight)
	})
	tau := opt.tau()

	dist[src].Store(0)
	f := []uint32{src} // this round's frontier: every entry has dist <= theta
	var carry []uint32 // far entries kept across phases
	theta := uint64(0) // process dist <= theta; first phase handles src only
	var last LastPhase // the running phase's width and extractions so far
	var bd boundary

	sc := graph.ScanOut(a)
	const nearSlot, farSlot = 0, 1 // spillNext fills nearSlot
	vgc := &localSearch{slots: 2, met: met, cl: cl}
	for {
		// Round/phase boundary: a canceled round drains chunks without
		// scanning them, so the emptiness tests below would read as
		// convergence — stop first.
		if err := cl.Poll(); err != nil {
			return nil, met, err
		}
		if len(f) == 0 {
			// New phase. Everything at or under the old θ has been scanned
			// at its current distance, so every live entry lies past it.
			kept := len(carry)
			carry = vgc.take(carry, farSlot)
			fresh := len(carry) - kept
			live, top := bd.liveFar(carry, dist, scanned, bound.Load())
			if len(live) == 0 {
				break
			}
			met.addPhase(int64(fresh))
			lv := sampleLive(live)
			theta = policy.Threshold(lv, last)
			if theta < lv.Min() {
				// Guarantees progress, and with it that θ only ever grows
				// (Min is a live distance, hence past the old θ): the
				// first-discovery rule below rests on that.
				theta = lv.Min()
			}
			last = LastPhase{Width: theta - lv.Min()}
			f, carry = bd.split(live, theta, top)
			continue
		}
		// Process the frontier — the only place the graph is scanned. The
		// visit closure sits directly in this loop, not in a helper
		// closure: go1.24 inlines such a helper at its one call site and
		// then compiles the closures nested in it without inlining, which
		// turned every atomic Load/CAS below into a call (+22 % on the
		// social graph).
		met.Round(len(f))
		last.Taken += len(f)
		// Multi-hop local expansion is only sound under a finite θ: it
		// bounds how wrong an eagerly-expanded tentative distance can be.
		// With θ = ∞ (Bellman–Ford policy) every improvement round-trips
		// through the next frontier instead: a zero budget spills everything
		// the frontier vertex discovers.
		localBudget := tau
		if theta == InfWeight {
			localBudget = 0
		}
		vgc.round(f, localBudget, nil, func(u uint32, s *scratch) int {
			du := dist[u].Load()
			b := bound.Load() // once per scanned vertex, not per arc
			if du >= b || !claimScan(&scanned[u], du) {
				return 0
			}
			nbrs, wts := sc.Arcs(u, s.nbuf, s.wbuf)
			for j, w := range nbrs {
				nd := du + uint64(wts[j])
				if nd >= b {
					continue // cannot extend a better path to dst
				}
				for {
					old := dist[w].Load()
					if nd >= old {
						break
					}
					if !dist[w].CompareAndSwap(old, nd) {
						continue
					}
					if nd > theta {
						// First discovery only: old is InfWeight, or
						// at/past the bound, under which a boundary
						// may have dropped w. A smaller old > θ
						// proves that discovery's entry is still in
						// far ∪ carry: promoting or scanning w takes
						// dist[w] <= some earlier θ, and θ only grows.
						if old >= b {
							s.out[farSlot] = append(s.out[farSlot], w)
						}
					} else {
						s.queue = append(s.queue, w)
					}
					break
				}
			}
			return len(nbrs)
		}, spillNext)
		f = vgc.next(nearSlot)
	}

	// Final check before handing the distances out: only a clean Poll lets
	// the result be claimed complete (see BFS).
	if err := cl.Poll(); err != nil {
		return nil, met, err
	}
	return dist, met, nil
}
