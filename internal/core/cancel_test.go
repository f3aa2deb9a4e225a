package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pasgal/internal/euler"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

// cancelCase wraps one public algorithm entry point for the cancellation
// conformance sweep. run must return the Metrics and error of one call and
// report (via t) any partial result handed back alongside a non-nil error —
// the contract is "typed error, Metrics so far, never a result".
type cancelCase struct {
	name string
	run  func(t *testing.T, opt Options) (*Metrics, error)
	// staged marks a run that is only a few stage boundaries long, too
	// short for TestCancelMidRun's watcher to be sure to land in it.
	staged bool
}

// cancelCases enumerates every public algorithm entry point in this
// package. dg must be directed and weighted, ug undirected and weighted;
// both must be connected with n >= 2.
func cancelCases(dg, ug *graph.Graph) []cancelCase {
	pol := RhoStepping{}
	return []cancelCase{
		{name: "BFS", run: func(t *testing.T, opt Options) (*Metrics, error) {
			dist, met, err := BFS(dg, 0, opt)
			if err != nil && dist != nil {
				t.Error("BFS returned a distance slice alongside its error")
			}
			return met, err
		}},
		{name: "BFSTree", run: func(t *testing.T, opt Options) (*Metrics, error) {
			dist, parent, met, err := BFSTree(dg, 0, opt)
			if err != nil && (dist != nil || parent != nil) {
				t.Error("BFSTree returned a result alongside its error")
			}
			return met, err
		}},
		{name: "SCC", run: func(t *testing.T, opt Options) (*Metrics, error) {
			comp, count, met, err := SCC(dg, opt)
			if err != nil && (comp != nil || count != 0) {
				t.Error("SCC returned a result alongside its error")
			}
			return met, err
		}},
		{name: "BCC", run: func(t *testing.T, opt Options) (*Metrics, error) {
			res, met, err := BCC(ug, opt)
			if err != nil && (res.ArcLabel != nil || res.IsArt != nil || res.NumBCC != 0) {
				t.Error("BCC returned a result alongside its error")
			}
			return met, err
		}},
		{name: "SSSP", run: func(t *testing.T, opt Options) (*Metrics, error) {
			dist, met, err := SSSP(ug, 0, pol, opt)
			if err != nil && dist != nil {
				t.Error("SSSP returned a distance slice alongside its error")
			}
			return met, err
		}},
		{name: "SSSPTree", run: func(t *testing.T, opt Options) (*Metrics, error) {
			dist, parent, met, err := SSSPTree(ug, 0, pol, opt)
			if err != nil && (dist != nil || parent != nil) {
				t.Error("SSSPTree returned a result alongside its error")
			}
			return met, err
		}},
		{name: "PointToPoint", run: func(t *testing.T, opt Options) (*Metrics, error) {
			d, met, err := PointToPoint(ug, 0, uint32(ug.N-1), pol, opt)
			if err != nil && d != InfWeight {
				t.Errorf("PointToPoint returned distance %d alongside its error, want InfWeight", d)
			}
			return met, err
		}},
		{name: "Reachable", run: func(t *testing.T, opt Options) (*Metrics, error) {
			reach, met, err := Reachable(dg, []uint32{0}, opt)
			if err != nil && reach != nil {
				t.Error("Reachable returned a result alongside its error")
			}
			return met, err
		}},
		{name: "KCore", run: func(t *testing.T, opt Options) (*Metrics, error) {
			core, deg, met, err := KCore(ug, opt)
			if err != nil && (core != nil || deg != 0) {
				t.Error("KCore returned a result alongside its error")
			}
			return met, err
		}},
		{name: "Bridges", run: func(t *testing.T, opt Options) (*Metrics, error) {
			br, n, met, err := Bridges(ug, opt)
			if err != nil && (br != nil || n != 0) {
				t.Error("Bridges returned a result alongside its error")
			}
			return met, err
		}},
		{name: "DensestSubgraph", run: func(t *testing.T, opt Options) (*Metrics, error) {
			verts, density, met, err := DensestSubgraph(ug, opt)
			if err != nil && (verts != nil || density != 0) {
				t.Error("DensestSubgraph returned a result alongside its error")
			}
			return met, err
		}},
		{name: "BCCFromForest", run: func(t *testing.T, opt Options) (*Metrics, error) {
			f := euler.Build(ug.N, spanningTreeOf(ug), make([]uint32, ug.N)) // one tree, rooted at 0
			res, met, err := BCCFromForest(ug, f, opt)
			if err != nil && (res.ArcLabel != nil || res.NumBCC != 0) {
				t.Error("BCCFromForest returned a result alongside its error")
			}
			return met, err
		}, staged: true},
	}
}

// loopTrip is a context that reads as canceled from the first Err call
// after tr has counted a parallel loop. Canceler.Poll consults Err at
// every stage boundary, so the cancellation lands at the first boundary
// past the run's first loop, with stages still ahead, and no goroutine
// races the run to it.
type loopTrip struct {
	context.Context
	tr *trace.Tracer
}

func (c loopTrip) Err() error {
	if c.tr.CounterValue(trace.CtrLoops)+c.tr.CounterValue(trace.CtrInlineLoops) > 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// spanningTreeOf returns the tree edges of a chain-shaped spanning tree
// for the chain test graphs, enough to drive BCCFromForest in the
// conformance sweep.
func spanningTreeOf(g *graph.Graph) []graph.Edge {
	tree := make([]graph.Edge, 0, g.N-1)
	for v := 1; v < g.N; v++ {
		tree = append(tree, graph.Edge{U: uint32(v - 1), V: uint32(v)})
	}
	return tree
}

// TestCancelPreCanceled: a context that is already canceled at the call
// must make every entry point return ErrCanceled without doing the run —
// with non-nil Metrics and no result.
func TestCancelPreCanceled(t *testing.T) {
	dg := gen.AddUniformWeights(gen.Chain(2000, true), 1, 10, 41)
	ug := gen.AddUniformWeights(gen.Chain(2000, false), 1, 10, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			met, err := tc.run(t, Options{Ctx: ctx})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v claims a deadline on a plain cancel", err)
			}
			if met == nil {
				t.Fatal("nil Metrics alongside the cancellation error")
			}
		})
	}
}

// TestCancelDeadlineExpired: an expired deadline maps to ErrDeadline, not
// ErrCanceled, at every entry point.
func TestCancelDeadlineExpired(t *testing.T) {
	dg := gen.AddUniformWeights(gen.Chain(2000, true), 1, 10, 43)
	ug := gen.AddUniformWeights(gen.Chain(2000, false), 1, 10, 44)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	for _, tc := range cancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			met, err := tc.run(t, Options{Ctx: ctx})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if met == nil {
				t.Fatal("nil Metrics alongside the deadline error")
			}
		})
	}
}

// TestCancelCustomCause: a cause installed via context.WithCancelCause must
// be wrapped into the returned error together with the typed sentinel.
func TestCancelCustomCause(t *testing.T) {
	g := gen.Chain(2000, true)
	because := errors.New("operator pulled the plug")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(because)
	_, _, err := BFS(g, 0, Options{Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, because) {
		t.Fatalf("err = %v does not wrap the cancellation cause", err)
	}
}

// TestCancelNilCtxCompletes: the zero Options must still mean "run to
// completion, nil error" — cancellation is strictly opt-in.
func TestCancelNilCtxCompletes(t *testing.T) {
	dg := gen.AddUniformWeights(gen.Chain(500, true), 1, 10, 45)
	ug := gen.AddUniformWeights(gen.Chain(500, false), 1, 10, 46)
	for _, tc := range cancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(t, Options{}); err != nil {
				t.Fatalf("unexpected error without a Ctx: %v", err)
			}
		})
	}
}

// TestCancelMidRun cancels each algorithm while it is demonstrably in
// flight: a watcher goroutine waits until the run's tracer has recorded
// enough activity (rounds, or scheduler loop launches for the round-free
// BCC pipeline), then cancels. On the 200k-vertex chains with Tau = 1 every
// algorithm has vastly more work left at that point, so the run must come
// back with the typed error and a cancel trace event rather than a result.
// A staged run (BCCFromForest: the forest is given, so only the labeling
// stages run) can end before the watcher acts; its context trips
// instead at the first stage boundary past a loop (loopTrip).
func TestCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-run cancellation sweep; skipped with -short")
	}
	// The watcher has to run beside the algorithm. On a single P it gets the
	// CPU only at a preemption tick, and the 90 ms BCC pipeline sometimes
	// finished first (check.sh runs the suite at GOMAXPROCS=1).
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 200_000
	dg := gen.AddUniformWeights(gen.Chain(n, true), 1, 10, 47)
	ug := gen.AddUniformWeights(gen.Chain(n, false), 1, 10, 48)
	for _, tc := range cancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New()
			defer parallel.SetTracer(parallel.SetTracer(tr))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runCtx := context.Context(ctx)
			if tc.staged {
				runCtx = loopTrip{ctx, tr}
			}
			done := make(chan struct{})
			go func() {
				for !tc.staged {
					select {
					case <-done:
						return
					default:
					}
					activity := tr.CounterValue(trace.CtrRounds) +
						tr.CounterValue(trace.CtrLoops) +
						tr.CounterValue(trace.CtrInlineLoops)
					if activity >= 16 {
						cancel()
						return
					}
					runtime.Gosched()
				}
			}()
			met, err := tc.run(t, Options{
				Ctx: runCtx, Tau: 1, Tracer: tr,
			})
			close(done)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if met == nil {
				t.Fatal("nil Metrics alongside the cancellation error")
			}
			if c := tr.CounterValue(trace.CtrCancels); c < 1 {
				t.Fatalf("CtrCancels = %d, want >= 1", c)
			}
			foundEvent := false
			for _, ev := range tr.Events() {
				if ev.Kind == trace.KindCancel {
					foundEvent = true
					break
				}
			}
			// If the watcher was starved long enough for the run to fill
			// the event ring before the cancel landed, the KindCancel
			// event is among the dropped tail; the counter above already
			// proved the cancel was recorded.
			if !foundEvent && tr.Dropped() == 0 {
				t.Fatal("no KindCancel event in the trace")
			}
		})
	}
}

// TestCancelEmitsOneTraceEvent: repeated Polls after the cancellation must
// not duplicate the cancel trace event — the Canceler emits it exactly once
// per run.
func TestCancelEmitsOneTraceEvent(t *testing.T) {
	g := gen.Chain(2000, true)
	tr := trace.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BFS(g, 0, Options{Ctx: ctx, Tracer: tr}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if c := tr.CounterValue(trace.CtrCancels); c != 1 {
		t.Fatalf("CtrCancels = %d after one canceled run, want exactly 1", c)
	}
}

// TestCancelNoGoroutineLeak: canceled runs must not leave watcher
// goroutines behind — the Canceler binds the context with AfterFunc (no
// goroutine while armed) and Close releases the registration, so the
// goroutine count must return to its pre-run baseline.
func TestCancelNoGoroutineLeak(t *testing.T) {
	g := gen.AddUniformWeights(gen.Chain(100_000, true), 1, 10, 49)
	// Warm up the worker pool so its (persistent, expected) goroutines are
	// part of the baseline.
	if _, _, err := BFS(g, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		_, _, err := BFS(g, 0, Options{Ctx: ctx, Tau: 1})
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("run %d: unexpected error kind: %v", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before the canceled runs",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStressCancelMidRun hammers the cancellation path under load for the
// -race tier: concurrent BFS runs, each canceled at an arbitrary point by
// an unsynchronized goroutine. Every run must end in nil or ErrCanceled —
// never a partial result, a panic, or a hang.
func TestStressCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	g := gen.AddUniformWeights(gen.Chain(50_000, true), 1, 10, 50)
	want, _, err := BFS(g, 0, Options{})
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
				// Stagger the cancels across the run's lifetime.
				time.Sleep(time.Duration(i%8) * 200 * time.Microsecond)
				cancel()
			}()
			dist, _, err := BFS(g, 0, Options{Ctx: ctx, Tau: 1})
			switch {
			case err == nil:
				// Completed before the cancel landed: result must be the
				// real answer.
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
