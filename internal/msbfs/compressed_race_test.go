package msbfs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// The -race tier for MS-BFS on compressed graphs: the per-chunk decode
// scratch of the push and pull scans is where a sharing bug between
// concurrent lanes (or concurrent batched runs) would hide from
// single-threaded tests.

// TestStressCompressedBatchedRuns fires several batched runs at one
// shared compressed graph concurrently — each a full 65-source batch so
// both lane groups and both scan directions execute — and checks every
// lane against the sequential oracle.
func TestStressCompressedBatchedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	g := gen.SocialRMAT(11, 8, true, 77)
	c := graph.Compress(g)
	srcs := make([]uint32, 65)
	for i := range srcs {
		srcs[i] = uint32((i * 37) % g.N)
	}
	oracle := make(map[uint32][]uint32, len(srcs))
	for _, s := range srcs {
		if _, ok := oracle[s]; !ok {
			oracle[s] = seq.BFS(g, s)
		}
	}
	const runs = 6
	var wg sync.WaitGroup
	errc := make(chan string, runs)
	for r := 0; r < runs; r++ {
		opt := core.Options{}
		if r%2 == 1 {
			opt.DisableDirectionOpt = true
		}
		wg.Add(1)
		go func(opt core.Options) {
			defer wg.Done()
			rows, _, err := Run(c, srcs, opt)
			if err != nil {
				errc <- err.Error()
				return
			}
			for i, s := range srcs {
				want := oracle[s]
				for v := range want {
					if rows[i][v] != want[v] {
						errc <- "lane distance mismatch"
						return
					}
				}
			}
		}(opt)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestCancelCompressedMidRun cancels concurrent compressed batched runs
// at arbitrary points: every run ends in nil (with oracle-correct rows)
// or the typed cancellation error with no rows.
func TestCancelCompressedMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	g := gen.Chain(30_000, true)
	c := graph.Compress(g)
	srcs := []uint32{0, 1, 2, 3}
	want, _, err := Run(c, srcs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		i := i
		go func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(time.Duration(i%8) * 200 * time.Microsecond)
				cancel()
			}()
			rows, _, err := Run(c, srcs, core.Options{Ctx: ctx, Tau: 1})
			switch {
			case err == nil:
				for l := range want {
					for v := range want[l] {
						if rows[l][v] != want[l][v] {
							errs <- errors.New("completed run returned wrong rows")
							return
						}
					}
				}
				errs <- nil
			case errors.Is(err, core.ErrCanceled):
				if rows != nil {
					errs <- errors.New("canceled run returned rows")
					return
				}
				errs <- nil
			default:
				errs <- err
			}
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
