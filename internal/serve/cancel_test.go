package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/trace"
)

// slowServer builds a server over a deep chain with Tau 1: a worst-case
// round count, so queries stay in flight long enough to cancel.
func slowServer(t *testing.T, n int) *Server {
	t.Helper()
	s, err := New(map[string]*graph.Graph{"chain": gen.Chain(n, true)},
		Config{Opt: core.Options{Tau: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do serves one request against the handler directly with the given
// context (the recorder path models a client disconnect precisely: the
// request context dies, the handler still gets to write its status).
func do(s *Server, ctx context.Context, target string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decodeErr unwraps the ErrorResponse body of a failed query.
func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatalf("error body does not decode: %v (body %.120q)", err, rec.Body.String())
	}
	return er
}

// TestCancelServeDisconnect: a client disconnect mid-query maps to the
// 499 status, bumps the canceled counter, and frees the admission slot.
// Both the coalesced path (bfs) and the direct path (sssp) must comply.
func TestCancelServeDisconnect(t *testing.T) {
	s := slowServer(t, 150_000)
	for _, target := range []string{
		"/query/bfs?graph=chain&src=0",
		"/query/sssp?graph=chain&src=0",
	} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			// Cancel once the computation is demonstrably in flight.
			for s.tracer.CounterValue(trace.CtrRounds) < 8 {
				runtime.Gosched()
			}
			cancel()
		}()
		rec := do(s, ctx, target)
		cancel()
		if rec.Code != StatusClientClosedRequest {
			t.Fatalf("%s: status %d, want %d (body %.120q)",
				target, rec.Code, StatusClientClosedRequest, rec.Body.String())
		}
		if er := decodeErr(t, rec); er.Status != StatusClientClosedRequest {
			t.Fatalf("%s: error body %+v", target, er)
		}
	}
	if got := s.canceledQ.Load(); got != 2 {
		t.Fatalf("canceled counter = %d, want 2", got)
	}
	// The canceled bfs submitter returns before its coalesced batch
	// finishes running for potential lane-mates, so the batch's admission
	// slot may still be charged for a moment; it must settle to zero.
	waitInflightZero(t, s)
}

// waitInflightZero polls the admission gauge back to zero — a leaked
// slot stays pinned forever and fails the deadline.
func waitInflightZero(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.adm.inflight.Load() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission slot leaked: inflight = %d did not settle", s.adm.inflight.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelServeTimeout: an expired ?timeout= maps to 504 with the
// deadline counter bumped, on the coalesced and direct paths.
func TestCancelServeTimeout(t *testing.T) {
	s := slowServer(t, 150_000)
	for _, target := range []string{
		"/query/bfs?graph=chain&src=0&timeout=1ms",
		"/query/scc?graph=chain&timeout=1ms",
	} {
		rec := do(s, context.Background(), target)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504 (body %.120q)", target, rec.Code, rec.Body.String())
		}
		if er := decodeErr(t, rec); er.Status != http.StatusGatewayTimeout {
			t.Fatalf("%s: error body %+v", target, er)
		}
	}
	if got := s.deadlinedQ.Load(); got != 2 {
		t.Fatalf("deadline counter = %d, want 2", got)
	}
	waitInflightZero(t, s)
}

// TestCancelServePreCanceled: a request whose context is already dead
// fails typed without ever admitting work.
func TestCancelServePreCanceled(t *testing.T) {
	s := slowServer(t, 5_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := do(s, ctx, "/query/sssp?graph=chain&src=0")
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

// TestCancelServeSlotFreed: after a storm of canceled queries the
// admission controller must be back to empty and a fresh query must
// succeed — the slot is recycled, not leaked.
func TestCancelServeSlotFreed(t *testing.T) {
	s := slowServer(t, 100_000)
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		do(s, ctx, fmt.Sprintf("/query/sssp?graph=chain&src=%d", i))
		cancel()
	}
	waitInflightZero(t, s)
	rec := do(s, context.Background(), "/query/bfs?graph=chain&src=99999&timeout=30s")
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up query: status %d (body %.120q)", rec.Code, rec.Body.String())
	}
}

// TestCancelServeNoGoroutineLeak: canceled and deadlined queries leave no
// goroutines behind; the count settles back to its warm baseline (the
// settle loop mirrors internal/msbfs's cancellation suite).
func TestCancelServeNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("goroutine settle sweep; skipped with -short")
	}
	s := slowServer(t, 100_000)
	// Warm up: worker pool, coalescer loop.
	if rec := do(s, context.Background(), "/query/bfs?graph=chain&src=0"); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d", rec.Code)
	}
	if rec := do(s, context.Background(), "/query/sssp?graph=chain&src=0&timeout=5ms"); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("warmup timeout: status %d", rec.Code)
	}
	base := runtime.NumGoroutine()
	// Direct (uncoalesced) queries only: a canceled coalesced submit
	// still flushes its batch for potential lane-mates, which would keep
	// the coalescer loop busy long past this test's settle window.
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		do(s, ctx, "/query/bfs?graph=chain&src=1&coalesce=off&cache=off")
		cancel()
		do(s, context.Background(), "/query/sssp?graph=chain&src=2&timeout=2ms&cache=off")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d baseline",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelServeTimeoutCapped: a ?timeout= beyond MaxTimeout is capped,
// not rejected — the effective deadline is the server's.
func TestCancelServeTimeoutCapped(t *testing.T) {
	g := gen.Chain(200_000, true)
	s, err := New(map[string]*graph.Graph{"chain": g},
		Config{MaxTimeout: 5 * time.Millisecond, Opt: core.Options{Tau: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := do(s, context.Background(), "/query/sssp?graph=chain&src=0&timeout=1h")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: MaxTimeout must cap ?timeout=", rec.Code)
	}
}

// TestCancelServeImplicitDeadline: even without ?timeout=, a query cannot
// outlive MaxTimeout.
func TestCancelServeImplicitDeadline(t *testing.T) {
	g := gen.Chain(200_000, true)
	s, err := New(map[string]*graph.Graph{"chain": g},
		Config{MaxTimeout: 5 * time.Millisecond, Opt: core.Options{Tau: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := do(s, context.Background(), "/query/sssp?graph=chain&src=0")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 from the implicit deadline", rec.Code)
	}
}
