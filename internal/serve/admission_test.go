package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// TestAdmissionBound: under heavy concurrent acquire/release churn the
// in-flight count never exceeds the capacity, measured both by the
// controller's own peak gauge and by an external counter.
func TestAdmissionBound(t *testing.T) {
	const capacity = 3
	a := newAdmission(capacity)
	var wg sync.WaitGroup
	var external sync.Mutex
	inUse, peak := 0, 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			external.Lock()
			inUse++
			if inUse > peak {
				peak = inUse
			}
			external.Unlock()
			time.Sleep(time.Millisecond)
			external.Lock()
			inUse--
			external.Unlock()
			a.release()
		}()
	}
	wg.Wait()
	if peak > capacity {
		t.Fatalf("external peak %d exceeds capacity %d", peak, capacity)
	}
	if p := a.peak.Load(); p > capacity {
		t.Fatalf("gauge peak %d exceeds capacity %d", p, capacity)
	}
	if in := a.inflight.Load(); in != 0 {
		t.Fatalf("inflight = %d after all released", in)
	}
	if got := a.admitted.Load(); got != 64 {
		t.Fatalf("admitted = %d, want 64", got)
	}
}

// TestAdmissionAbandon: a queued acquire whose context dies returns the
// context's cause, counts as abandoned, and leaves the slot untouched.
func TestAdmissionAbandon(t *testing.T) {
	a := newAdmission(1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client walked away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if err := a.acquire(ctx); !errors.Is(err, cause) {
		t.Fatalf("acquire on dead context: %v, want the cancellation cause", err)
	}
	if got := a.abandoned.Load(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	a.release()
	// The abandoned wait must not have consumed or corrupted the slot.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("slot corrupted after abandon: %v", err)
	}
	a.release()
}

// TestAdmissionBatchBlocks: acquireBatch has no context and waits out a
// full controller rather than failing.
func TestAdmissionBatchBlocks(t *testing.T) {
	a := newAdmission(1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		a.acquireBatch()
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("acquireBatch succeeded while the controller was full")
	case <-time.After(20 * time.Millisecond):
	}
	a.release()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("acquireBatch never woke after the release")
	}
	a.release()
	if w := a.waited.Load(); w != 1 {
		t.Fatalf("waited = %d, want 1", w)
	}
}

// TestAdmissionDefaultsToOneSlot: a zero Config runs one kernel at a
// time, so concurrent direct queries queue instead of splitting the
// worker pool; MaxConcurrent still overrides the default.
func TestAdmissionDefaultsToOneSlot(t *testing.T) {
	g := gen.SocialRMAT(11, 8, true, 3)
	metrics := func(url string) MetricsResponse {
		t.Helper()
		var mr MetricsResponse
		if st, _ := getJSON(t, url+"/metrics", &mr); st != http.StatusOK {
			t.Fatalf("/metrics status %d", st)
		}
		return mr
	}
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	if c := metrics(hs.URL).Admission.Capacity; c != 1 {
		t.Fatalf("zero Config: admission capacity %d, want 1", c)
	}
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wantStatus(t, fmt.Sprintf("%s/query/sssp?graph=g&src=%d&coalesce=off&cache=off", hs.URL, src), http.StatusOK)
		}()
	}
	wg.Wait()
	if adm := metrics(hs.URL).Admission; adm.Peak != 1 || adm.Admitted != 2 {
		t.Fatalf("two concurrent sssp queries: peak %d admitted %d, want 1 and 2", adm.Peak, adm.Admitted)
	}

	_, hs2 := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{MaxConcurrent: 2})
	if c := metrics(hs2.URL).Admission.Capacity; c != 2 {
		t.Fatalf("MaxConcurrent 2: admission capacity %d, want 2", c)
	}
}
