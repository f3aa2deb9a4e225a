package core

import (
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"pasgal/internal/parallel"
)

// TestPhaseBoundaryHelpers checks the stepping boundary's far-set pass and
// split against the two-read Packs they replaced. The candidates hold
// stale entries (dist >= scanned), entries at or over a point-to-point
// bound, and duplicates. The inline and parallel passes must return the
// same pairs in the same order on either side of parallel.SeqCutoff, and
// the split must equal Pack(live, dist <= θ) and Pack(live, dist > θ)
// element for element, for θ under, inside and at or past the live range.
// Both run on buffers reused from the previous size.
func TestPhaseBoundaryHelpers(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	const bound = 900
	rng := rand.New(rand.NewPCG(3, 11))
	cut := parallel.SeqCutoff
	// One boundary each across all sizes, as across the phases of a run:
	// the largest size first, so later sizes reuse buffers holding stale
	// entries.
	var bPar, bd boundary
	for _, size := range []int{4 * cut, cut - 1, cut, cut + 1} {
		n := size/2 + 1 // so the candidates repeat vertices
		dist := make([]atomic.Uint64, n)
		scanned := make([]atomic.Uint64, n)
		for v := range dist {
			d := 100 + rng.Uint64N(850) // a tenth at or over the bound
			dist[v].Store(d)
			switch rng.IntN(8) {
			case 0:
				scanned[v].Store(d) // scanned at its distance: stale
			case 1:
				scanned[v].Store(d - rng.Uint64N(50)) // scanned closer: stale
			default:
				scanned[v].Store(d + 1 + rng.Uint64N(InfWeight-d-1))
			}
		}
		cand := make([]uint32, size)
		for i := range cand {
			cand[i] = uint32(rng.IntN(n))
		}
		want := parallel.Pack(cand, func(i int) bool {
			v := cand[i]
			d := dist[v].Load()
			return d < scanned[v].Load() && d < bound
		})
		wantTop := uint64(0)
		for _, v := range want {
			wantTop = max(wantTop, dist[v].Load())
		}

		inline, inTop := keepLive(nil, cand, dist, scanned, bound)
		par, parTop := bPar.liveFarParallel(cand, dist, scanned, bound)
		live, top := bd.liveFar(cand, dist, scanned, bound)
		for _, got := range []struct {
			path string
			live []farEntry
			top  uint64
		}{{"inline", inline, inTop}, {"parallel", par, parTop}, {"liveFar", live, top}} {
			if len(got.live) != len(want) || got.top != wantTop {
				t.Fatalf("size %d, %s: %d live, top %d; Pack keeps %d, top %d", size, got.path, len(got.live), got.top, len(want), wantTop)
			}
			for i, e := range got.live {
				if e.v != want[i] || e.d != dist[e.v].Load() {
					t.Fatalf("size %d, %s: entry %d = %+v, want {%d %d}", size, got.path, i, e, want[i], dist[want[i]].Load())
				}
			}
		}

		for _, theta := range []uint64{0, 99, 400, 700, top - 1, top, InfWeight} {
			f, carry := bd.split(live, theta, top)
			wantF := parallel.Pack(want, func(i int) bool { return dist[want[i]].Load() <= theta })
			wantCarry := parallel.Pack(want, func(i int) bool { return dist[want[i]].Load() > theta })
			if !slices.Equal(f, wantF) || !slices.Equal(carry, wantCarry) {
				t.Fatalf("size %d, θ %d: split into %d + %d entries, the two Packs give %d + %d (or the order differs)",
					size, theta, len(f), len(carry), len(wantF), len(wantCarry))
			}
		}
	}
}
