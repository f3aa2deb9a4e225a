package msbfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/graph"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("msbfs: coalescer closed")

// CoalescerOptions configures a Coalescer. The zero value runs batches
// with default options and no gate.
type CoalescerOptions struct {
	// Opt is threaded into every batch run. Opt.Ctx applies to the batch
	// as a whole; per-request deadlines go through Submit's ctx (which
	// abandons the wait, and drops the source if its batch has not been
	// taken yet — a taken batch keeps running for the lane-mates).
	Opt core.Options

	// Gate, when non-nil, is acquired before each batch is taken from the
	// queue and must return the matching release function, which runs
	// right after the engine run. A serving daemon passes its admission
	// slot: one slot per batch of up to LaneWidth queries, and the time
	// spent waiting for it is the batching window. The gate takes no
	// context and may block: a batch must run for its lane-mates
	// regardless of any one submitter's cancellation.
	Gate func() (release func())
}

// Coalescer is the batching front door for single-source callers: it
// queues concurrent BFS requests against one graph and runs them as lane
// groups through Run, so independent callers share edge scans without
// coordinating.
//
// Batching is group commit with the gate as the window. A Submit that
// finds no flusher active starts one: the flusher acquires the Gate,
// takes up to LaneWidth queued requests whose submitters still wait, runs
// them, releases the gate, and repeats while requests remain. Arrivals
// during the gate wait or a run join the next take, so the batch width
// follows how long requests queue, not a clock. Without a Gate a lone
// Submit runs at once. Releasing the gate between groups lets a caller
// queued on the same gate take its turn. Lane-mates block in Submit until
// their row is ready.
type Coalescer struct {
	g    graph.Adjacency
	opts CoalescerOptions

	mu       sync.Mutex
	queue    []request
	flushing bool // a flusher is active; it drains the queue before clearing this
	closed   bool
	queries  int64
	batches  int64

	// flusher tracks the active flusher so Close can wait it out.
	flusher sync.WaitGroup
}

type request struct {
	src  uint32
	ctx  context.Context // the submitter's; done means nobody waits for the row
	done chan result
}

type result struct {
	row Row
	err error
}

// Row is one Submit answer: the distance row and the span of the batch
// run that computed it (gate held, from the engine's start to its end).
type Row struct {
	Dist       []uint32
	Start, End time.Time
}

// NewCoalescer returns a Coalescer serving BFS queries against g (any
// graph representation).
func NewCoalescer(g graph.Adjacency, opts CoalescerOptions) *Coalescer {
	return &Coalescer{g: g, opts: opts}
}

// Submit queues one BFS source and blocks until its distance row is ready
// (hop distances from src; graph.InfDist marks unreachable vertices). A
// done ctx abandons the wait with ctx's cause: a source still queued is
// dropped at take time, and a batch already taken still completes for the
// other lanes. Safe for concurrent use.
func (c *Coalescer) Submit(ctx context.Context, src uint32) ([]uint32, error) {
	r, err := c.SubmitRow(ctx, src)
	return r.Dist, err
}

// SubmitRow is Submit returning the Row, which also carries the batch
// run's span.
func (c *Coalescer) SubmitRow(ctx context.Context, src uint32) (Row, error) {
	if n := c.g.NumVertices(); int(src) >= n {
		return Row{}, fmt.Errorf("msbfs: source %d out of range [0, %d)", src, n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan result, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Row{}, ErrClosed
	}
	c.queue = append(c.queue, request{src: src, ctx: ctx, done: done})
	flush := !c.flushing
	if flush {
		c.flushing = true
		c.flusher.Add(1)
	}
	c.mu.Unlock()
	if flush {
		// The flusher runs beside its submitter, so that submitter can
		// abandon its wait like any lane-mate while the batch waits for
		// the gate or runs.
		go c.flush()
	}
	select {
	case r := <-done:
		return r.row, r.err
	case <-ctx.Done():
		return Row{}, context.Cause(ctx)
	}
}

// Close fails all future Submits with ErrClosed and waits until the
// active flusher, if any, has run every queued request that is still
// waited for.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.flusher.Wait()
}

// Stats reports how many queries were answered and how many batch runs
// served them; queries/batches is the achieved scan-sharing factor.
func (c *Coalescer) Stats() (queries, batches int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries, c.batches
}

// flush is the flusher's loop: gate, take up to one lane group, run,
// release, until the queue is empty. The queue is non-empty on entry and
// only this loop empties it. A take that finds only abandoned requests
// releases the gate without a run.
func (c *Coalescer) flush() {
	defer c.flusher.Done()
	for {
		release := func() {}
		if c.opts.Gate != nil {
			release = c.opts.Gate()
		}
		if batch := c.take(); len(batch) > 0 {
			c.run(batch)
		}
		release()
		c.mu.Lock()
		idle := len(c.queue) == 0
		if idle {
			c.queue = nil
			c.flushing = false
		}
		c.mu.Unlock()
		if idle {
			return
		}
	}
}

// take removes up to LaneWidth live requests from the head of the queue,
// dropping on the way those whose submitter's ctx is done: nobody waits
// for their rows.
func (c *Coalescer) take() []request {
	c.mu.Lock()
	defer c.mu.Unlock()
	var batch []request
	i := 0
	for ; i < len(c.queue) && len(batch) < LaneWidth; i++ {
		if r := c.queue[i]; r.ctx.Err() == nil {
			batch = append(batch, r)
		}
	}
	c.queue = c.queue[i:]
	return batch
}

// run runs one batch and hands every submitter its row.
func (c *Coalescer) run(batch []request) {
	srcs := make([]uint32, len(batch))
	for i, r := range batch {
		srcs[i] = r.src
	}
	start := time.Now()
	rows, _, err := Run(c.g, srcs, c.opts.Opt)
	end := time.Now()
	// Count before answering, so a submitter reading Stats sees its batch.
	c.mu.Lock()
	c.queries += int64(len(batch))
	c.batches++
	c.mu.Unlock()
	for i, r := range batch {
		res := result{row: Row{Start: start, End: end}, err: err}
		if err == nil {
			res.row.Dist = rows[i]
		}
		r.done <- res
	}
}
