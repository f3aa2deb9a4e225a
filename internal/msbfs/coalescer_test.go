package msbfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

func TestCoalescerSingleQuery(t *testing.T) {
	g := gen.Chain(500, true)
	c := NewCoalescer(g, CoalescerOptions{})
	defer c.Close()
	dist, err := c.Submit(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.BFS(g, 3)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

// heldGate is a one-slot Gate the test holds closed: a flusher blocks in
// it until the test calls open, so every source submitted meanwhile is
// queued when the batch is taken.
type heldGate chan struct{}

func holdGate() heldGate {
	g := make(heldGate, 1)
	g <- struct{}{}
	return g
}

func (g heldGate) gate() func() {
	g <- struct{}{}
	return func() { <-g }
}

func (g heldGate) open() { <-g }

// waitQueued polls until k requests are queued behind the held gate.
func waitQueued(t *testing.T, c *Coalescer, k int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		queued := len(c.queue)
		c.mu.Unlock()
		if queued == k {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", queued, k)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitAll submits k distinct sources from k goroutines and returns a
// wait function yielding their rows and errors.
func submitAll(c *Coalescer, n, k int) func() ([][]uint32, []error) {
	dists := make([][]uint32, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dists[i], errs[i] = c.Submit(context.Background(), uint32(i*11%n))
		}()
	}
	return func() ([][]uint32, []error) {
		wg.Wait()
		return dists, errs
	}
}

// checkRows compares every submitted row against the sequential oracle.
func checkRows(t *testing.T, g *graph.Graph, dists [][]uint32, errs []error) {
	t.Helper()
	for i := range dists {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want := seq.BFS(g, uint32(i*11%g.N))
		for v := range want {
			if dists[i][v] != want[v] {
				t.Fatalf("query %d: dist[%d] = %d, want %d", i, v, dists[i][v], want[v])
			}
		}
	}
}

// TestCoalescerBatchesConcurrentQueries pins the whole point of the
// Coalescer: sources that queue while the gate is held share one run per
// lane group, and every submitter still gets its own correct row.
func TestCoalescerBatchesConcurrentQueries(t *testing.T) {
	g := gen.ER(800, 4000, true, 33)
	for _, tc := range []struct{ k, batches int }{{40, 1}, {65, 2}} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			hg := holdGate()
			c := NewCoalescer(g, CoalescerOptions{Gate: hg.gate})
			defer c.Close()
			wait := submitAll(c, g.N, tc.k)
			waitQueued(t, c, tc.k)
			hg.open()
			dists, errs := wait()
			checkRows(t, g, dists, errs)
			if q, b := c.Stats(); q != int64(tc.k) || b != int64(tc.batches) {
				t.Fatalf("Stats = (%d, %d), want (%d, %d)", q, b, tc.k, tc.batches)
			}
		})
	}
}

// TestCoalescerLoneSubmit: with the gate free, a lone request runs at
// once as a batch of one; nothing waits for lane-mates that never come.
func TestCoalescerLoneSubmit(t *testing.T) {
	g := gen.Chain(100, false)
	c := NewCoalescer(g, CoalescerOptions{Gate: make(heldGate, 1).gate})
	defer c.Close()
	dist, err := c.Submit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[99] != 99 {
		t.Fatalf("dist[99] = %d, want 99", dist[99])
	}
	if _, b := c.Stats(); b != 1 {
		t.Fatalf("batches = %d, want 1", b)
	}
}

func TestCoalescerValidatesSource(t *testing.T) {
	g := gen.Chain(10, false)
	c := NewCoalescer(g, CoalescerOptions{})
	defer c.Close()
	if _, err := c.Submit(context.Background(), 10); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	// The bad submit must not have left a queued request behind.
	if q, _ := c.Stats(); q != 0 {
		t.Fatalf("queries = %d after a rejected submit, want 0", q)
	}
}

// TestCoalescerSubmitCtxAbandon: a caller whose ctx dies while its batch
// waits for the gate gets the ctx cause and its source is dropped; the
// batch still runs for the lane-mate, and the coalescer stays usable.
func TestCoalescerSubmitCtxAbandon(t *testing.T) {
	g := gen.Chain(100, false)
	hg := holdGate()
	c := NewCoalescer(g, CoalescerOptions{Gate: hg.gate})
	defer c.Close()
	wait := submitAll(c, g.N, 1)
	waitQueued(t, c, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Submit(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	hg.open()
	dists, errs := wait()
	checkRows(t, g, dists, errs)
	if q, b := c.Stats(); q != 1 || b != 1 {
		t.Fatalf("Stats = (%d, %d), want (1, 1): the abandoned source is dropped at take time", q, b)
	}
	if _, err := c.Submit(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerAllAbandoned: a batch whose submitters have all gone
// before the gate opens runs no engine pass; the gate is still released,
// and a later live query is answered.
func TestCoalescerAllAbandoned(t *testing.T) {
	g := gen.Chain(100, false)
	hg := holdGate()
	c := NewCoalescer(g, CoalescerOptions{Gate: hg.gate})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 3)
	for s := uint32(0); s < 3; s++ {
		go func() {
			_, err := c.Submit(ctx, s)
			errs <- err
		}()
	}
	waitQueued(t, c, 3)
	cancel()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	hg.open()
	for flushing := true; flushing; {
		c.mu.Lock()
		flushing = c.flushing
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if q, b := c.Stats(); q != 0 || b != 0 {
		t.Fatalf("Stats = (%d, %d), want (0, 0): the abandoned batch ran an engine pass", q, b)
	}
	// The flusher released the gate: a live query takes it and is answered.
	if _, err := c.Submit(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if q, b := c.Stats(); q != 1 || b != 1 {
		t.Fatalf("Stats = (%d, %d), want (1, 1)", q, b)
	}
}

// TestCoalescerBatchCtxCancel: a canceled Opt.Ctx fails the whole batch
// with the engine's typed error, delivered to every submitter.
func TestCoalescerBatchCtxCancel(t *testing.T) {
	g := gen.Chain(100, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCoalescer(g, CoalescerOptions{Opt: core.Options{Ctx: ctx}})
	defer c.Close()
	if _, err := c.Submit(context.Background(), 0); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
}

// TestCoalescerClose: Close while the flusher waits on a held gate
// returns only after every queued request has run, then fails future
// submits with ErrClosed.
func TestCoalescerClose(t *testing.T) {
	g := gen.ER(300, 1200, true, 5)
	hg := holdGate()
	c := NewCoalescer(g, CoalescerOptions{Gate: hg.gate})
	const k = 5
	wait := submitAll(c, g.N, k)
	waitQueued(t, c, k)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	// Close must be blocked on the queued work until the gate opens.
	for {
		c.mu.Lock()
		isClosed := c.closed
		c.mu.Unlock()
		if isClosed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while requests were still queued behind the gate")
	default:
	}
	if _, err := c.Submit(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v after Close began, want ErrClosed", err)
	}
	hg.open()
	<-closed
	dists, errs := wait()
	checkRows(t, g, dists, errs)
	if q, _ := c.Stats(); q != k {
		t.Fatalf("queries = %d after Close, want %d", q, k)
	}
	c.Close() // idempotent
}

// TestStressCoalescer drives the coalescer from many goroutines through a
// one-slot gate, as the daemon wires it, for the -race tier: submit path,
// flusher hand-over, and stats must all be clean under contention.
func TestStressCoalescer(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	g := gen.SocialRMAT(8, 8, true, 77)
	c := NewCoalescer(g, CoalescerOptions{Gate: make(heldGate, 1).gate})
	defer c.Close()
	want := make(map[uint32][]uint32)
	for s := 0; s < 16; s++ {
		want[uint32(s)] = seq.BFS(g, uint32(s))
	}
	const goroutines = 12
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perG; q++ {
				s := uint32((w*perG + q) % 16)
				dist, err := c.Submit(context.Background(), s)
				if err != nil {
					errs <- err
					return
				}
				for v := range want[s] {
					if dist[v] != want[s][v] {
						errs <- errors.New("wrong distance row under stress")
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for w := 0; w < goroutines; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	q, b := c.Stats()
	if q != goroutines*perG {
		t.Fatalf("queries = %d, want %d", q, goroutines*perG)
	}
	if b < 1 {
		t.Fatal("no batches recorded")
	}
	t.Logf("coalescing factor: %d queries / %d batches = %.1fx", q, b, float64(q)/float64(b))
}

// TestStressBatchedRuns runs concurrent independent multi-group batches
// on a shared graph for the -race tier: the engine's state is per-call,
// so runs must not interfere.
func TestStressBatchedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	g := gen.ER(2000, 8000, true, 55)
	srcs := pickSources(g, 65)
	want, _, err := Run(g, srcs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			rows, _, err := Run(g, srcs, core.Options{})
			if err != nil {
				errs <- err
				return
			}
			for l := range want {
				for v := range want[l] {
					if rows[l][v] != want[l][v] {
						errs <- errors.New("concurrent batched runs interfered")
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescerGate: the Gate hook brackets every batch run exactly once
// (acquire before the engine runs, release after), so a daemon charging
// one admission slot per flushed batch sees balanced accounting and a
// concurrency level bounded by the number of concurrent batches — not
// the number of queued queries.
func TestCoalescerGate(t *testing.T) {
	g := gen.Chain(300, true)
	var mu sync.Mutex
	var acquires, releases, inGate int
	maxInGate := 0
	c := NewCoalescer(g, CoalescerOptions{
		Gate: func() func() {
			mu.Lock()
			acquires++
			inGate++
			if inGate > maxInGate {
				maxInGate = inGate
			}
			mu.Unlock()
			return func() {
				mu.Lock()
				releases++
				inGate--
				mu.Unlock()
			}
		},
	})
	const queries = 16
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		src := uint32(i % 7)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist, err := c.Submit(context.Background(), src)
			if err != nil {
				t.Errorf("Submit(%d): %v", src, err)
				return
			}
			want := seq.BFS(g, src)
			for v := range want {
				if dist[v] != want[v] {
					t.Errorf("src %d: dist[%d] = %d, want %d", src, v, dist[v], want[v])
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	if acquires == 0 || acquires != releases {
		t.Fatalf("gate accounting unbalanced: %d acquires, %d releases", acquires, releases)
	}
	if acquires > queries {
		t.Fatalf("gate entered %d times for %d queries: batches did not coalesce", acquires, queries)
	}
	_, batches := c.Stats()
	if int64(acquires) != batches {
		t.Fatalf("gate entered %d times but %d batches ran", acquires, batches)
	}
}
