package baseline

import (
	"context"
	"errors"
	"testing"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// baselineCancelCases enumerates every baseline entry point; each takes
// Options and so can carry a context. The case names keep the "Opt"
// suffix the entry points once had, so the subtest names stay stable.
// dg must be directed and weighted, ug undirected and weighted.
func baselineCancelCases(dg, ug *graph.Graph) []struct {
	name string
	run  func(t *testing.T, opt core.Options) (*core.Metrics, error)
} {
	return []struct {
		name string
		run  func(t *testing.T, opt core.Options) (*core.Metrics, error)
	}{
		{"GBBSBFSOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			dist, met, err := GBBSBFS(dg, 0, opt)
			if err != nil && dist != nil {
				t.Error("returned a distance slice alongside the error")
			}
			return met, err
		}},
		{"GAPBSBFSOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			dist, met, err := GAPBSBFS(dg, 0, opt)
			if err != nil && dist != nil {
				t.Error("returned a distance slice alongside the error")
			}
			return met, err
		}},
		{"GBBSSCCOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			comp, count, met, err := GBBSSCC(dg, opt)
			if err != nil && (comp != nil || count != 0) {
				t.Error("returned a result alongside the error")
			}
			return met, err
		}},
		{"MultistepSCCOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			comp, count, met, err := MultistepSCC(dg, opt)
			if err != nil && (comp != nil || count != 0) {
				t.Error("returned a result alongside the error")
			}
			return met, err
		}},
		{"GBBSBCCOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			res, met, err := GBBSBCC(ug, opt)
			if err != nil && (res.ArcLabel != nil || res.NumBCC != 0) {
				t.Error("returned a result alongside the error")
			}
			return met, err
		}},
		{"TarjanVishkinBCCOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			res, met, _, err := TarjanVishkinBCC(ug, opt)
			if err != nil && (res.ArcLabel != nil || res.NumBCC != 0) {
				t.Error("returned a result alongside the error")
			}
			return met, err
		}},
		{"GBBSBellmanFordSSSPOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			dist, met, err := GBBSBellmanFordSSSP(ug, 0, opt)
			if err != nil && dist != nil {
				t.Error("returned a distance slice alongside the error")
			}
			return met, err
		}},
		{"DeltaSteppingSSSPOpt", func(t *testing.T, opt core.Options) (*core.Metrics, error) {
			dist, met, err := DeltaSteppingSSSP(ug, 0, 8, opt)
			if err != nil && dist != nil {
				t.Error("returned a distance slice alongside the error")
			}
			return met, err
		}},
	}
}

// TestBaselineCancelPreCanceled: the competing systems honor the same
// cancellation contract as the PASGAL drivers — a pre-canceled Ctx returns
// ErrCanceled with Metrics and no result.
func TestBaselineCancelPreCanceled(t *testing.T) {
	dg := gen.AddUniformWeights(gen.Chain(2000, true), 1, 10, 61)
	ug := gen.AddUniformWeights(gen.Chain(2000, false), 1, 10, 62)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range baselineCancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			met, err := tc.run(t, core.Options{Ctx: ctx})
			if !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if met == nil {
				t.Fatal("nil Metrics alongside the cancellation error")
			}
		})
	}
}

// TestBaselineCancelDeadlineExpired: expired deadlines map to ErrDeadline
// for the baselines too.
func TestBaselineCancelDeadlineExpired(t *testing.T) {
	dg := gen.AddUniformWeights(gen.Chain(2000, true), 1, 10, 63)
	ug := gen.AddUniformWeights(gen.Chain(2000, false), 1, 10, 64)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	for _, tc := range baselineCancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(t, core.Options{Ctx: ctx}); !errors.Is(err, core.ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
		})
	}
}

// TestBaselineCancelNilCtxCompletes: the zero Options still means run to
// completion for every baseline.
func TestBaselineCancelNilCtxCompletes(t *testing.T) {
	dg := gen.AddUniformWeights(gen.Chain(500, true), 1, 10, 65)
	ug := gen.AddUniformWeights(gen.Chain(500, false), 1, 10, 66)
	for _, tc := range baselineCancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(t, core.Options{}); err != nil {
				t.Fatalf("unexpected error without a Ctx: %v", err)
			}
		})
	}
}

// TestBaselineCancelMidRun cancels each baseline shortly after launch on a
// long chain (the GBBS baselines' worst case: one round per hop). The run
// must come back with ErrCanceled, not a result.
func TestBaselineCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-run cancellation sweep; skipped with -short")
	}
	const n = 200_000
	dg := gen.AddUniformWeights(gen.Chain(n, true), 1, 10, 67)
	ug := gen.AddUniformWeights(gen.Chain(n, false), 1, 10, 68)
	for _, tc := range baselineCancelCases(dg, ug) {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(500 * time.Microsecond)
				cancel()
			}()
			met, err := tc.run(t, core.Options{Ctx: ctx})
			if err == nil {
				// The run beat the cancel; nothing to assert (the result
				// path is covered by the agreement tests).
				t.Skip("run completed before the cancel landed")
			}
			if !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if met == nil {
				t.Fatal("nil Metrics alongside the cancellation error")
			}
		})
	}
}
