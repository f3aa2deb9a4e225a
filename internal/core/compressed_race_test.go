package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// The -race tier counterpart of the compressed differential suite: the
// kernels on a compressed graph decode through shared read-only data
// (and, in production, an mmap view), so concurrent queries and mid-run
// cancellations are exactly where a mis-scoped scratch buffer or a decode
// into shared state would surface.

// TestStressCompressedBFSConcurrentQueries mirrors the plain stress test
// on compressed graphs: several BFS queries in flight at once on one
// shared compressed graph, each checked against the sequential oracle.
func TestStressCompressedBFSConcurrentQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	old := parallel.SetWorkers(16)
	defer parallel.SetWorkers(old)

	graphs := []*graph.Graph{
		gen.Chain(3000, false),
		gen.ER(2500, 7000, false, 11),
		gen.SocialRMAT(11, 8, true, 13),
	}
	for gi, g := range graphs {
		c := graph.Compress(g)
		srcs := []uint32{0, uint32(g.N / 3), uint32(g.N - 1)}
		want := make([][]uint32, len(srcs))
		for i, s := range srcs {
			want[i] = seq.BFS(g, s)
		}
		var wg sync.WaitGroup
		errc := make(chan string, len(srcs)*2)
		for rep := 0; rep < 2; rep++ {
			for i, s := range srcs {
				wg.Add(1)
				go func(i int, s uint32) {
					defer wg.Done()
					dist, _, _ := BFS(c, s, Options{})
					for v := range dist {
						if dist[v] != want[i][v] {
							errc <- "distance mismatch"
							return
						}
					}
				}(i, s)
			}
		}
		wg.Wait()
		close(errc)
		for msg := range errc {
			t.Fatalf("graph %d: %s", gi, msg)
		}
	}
}

// TestStressCompressedSSSPConcurrentQueries does the same for the weighted
// decode path: interleaved (neighbor, weight) varint streams scanned by
// concurrent relaxation rounds.
func TestStressCompressedSSSPConcurrentQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	old := parallel.SetWorkers(16)
	defer parallel.SetWorkers(old)

	g := gen.AddUniformWeights(gen.ER(2000, 8000, true, 14), 1, 100, 15)
	c := graph.Compress(g)
	srcs := []uint32{0, uint32(g.N / 2), uint32(g.N - 1)}
	want := make([][]uint64, len(srcs))
	for i, s := range srcs {
		want[i] = seq.Dijkstra(g, s)
	}
	var wg sync.WaitGroup
	errc := make(chan string, len(srcs)*2)
	for rep := 0; rep < 2; rep++ {
		for i, s := range srcs {
			wg.Add(1)
			go func(i int, s uint32) {
				defer wg.Done()
				dist, _, _ := SSSP(c, s, nil, Options{})
				for v := range dist {
					if dist[v] != want[i][v] {
						errc <- "distance mismatch"
						return
					}
				}
			}(i, s)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestCancelCompressedMidRun hammers cancellation on the compressed scan
// path: concurrent compressed BFS runs, each canceled at an arbitrary
// point. Every run must end in nil (with correct distances) or
// ErrCanceled with no result — the same contract the plain path pins.
func TestCancelCompressedMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	c := graph.Compress(gen.Chain(50_000, true))
	want, _, err := BFS(c, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 24
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
			dist, _, err := BFS(c, 0, Options{Ctx: ctx, Tau: 1})
			switch {
			case err == nil:
				for v := range want {
					if dist[v] != want[v] {
						errs <- errors.New("completed run returned wrong distances")
						return
					}
				}
				errs <- nil
			case errors.Is(err, ErrCanceled):
				if dist != nil {
					errs <- errors.New("canceled run returned a distance slice")
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

// TestCancelCompressedPreCanceled: the compressed entry points honor an
// already-dead context before scanning anything, across every algorithm
// that accepts a compressed graph.
func TestCancelCompressedPreCanceled(t *testing.T) {
	c := graph.Compress(gen.AddUniformWeights(gen.Chain(500, true), 1, 10, 45))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Ctx: ctx}
	if dist, _, err := BFS(c, 0, opt); !errors.Is(err, ErrCanceled) || dist != nil {
		t.Fatalf("BFS: err = %v, dist nil = %t", err, dist == nil)
	}
	if dist, _, err := SSSP(c, 0, nil, opt); !errors.Is(err, ErrCanceled) || dist != nil {
		t.Fatalf("SSSP: err = %v, dist nil = %t", err, dist == nil)
	}
	if d, _, err := PointToPoint(c, 0, uint32(c.NumVertices()-1), nil, opt); !errors.Is(err, ErrCanceled) || d != InfWeight {
		t.Fatalf("PointToPoint: err = %v, d = %d", err, d)
	}
	if reach, _, err := Reachable(c, []uint32{0}, opt); !errors.Is(err, ErrCanceled) || reach != nil {
		t.Fatalf("Reachable: err = %v, reach nil = %t", err, reach == nil)
	}
}
