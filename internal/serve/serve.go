// Package serve is the PASGAL graph query daemon: a stdlib-only HTTP/JSON
// server that loads one or more graphs into memory once and answers
// concurrent bfs / sssp / scc / kcore / reachable / p2p queries against
// them under heavy load. It is the serving layer the ROADMAP's north star
// asks for, assembled from parts earlier PRs built:
//
//   - Options.Ctx + typed ErrCanceled/ErrDeadline bind every query to its
//     HTTP request context: a client disconnect cancels the parallel run
//     mid-flight (status 499), an expired ?timeout= maps to 504.
//   - A semaphore-based admission controller bounds concurrent parallel
//     computations so p queries do not oversubscribe the p-worker
//     scheduler; queued requests abandon the wait when their context dies.
//   - Single-source BFS and reachability route through the msbfs.Coalescer:
//     concurrent submitters group-commit into shared MS-BFS lane runs, and
//     each flushed batch charges ONE admission slot for up to 64 queries.
//   - A bounded LRU cache keyed on (graph, algo, sources, normalized
//     options) replays byte-identical response bodies on hits.
//   - trace.Tracer counters, cache hit/miss rates, and admission gauges
//     surface on /metrics; /healthz flips to 503 while draining.
//   - With Config.Mutable, graphs are served through delta.Store epoch
//     snapshots: POST /update applies insert/delete batches, every query
//     pins the epoch it answers from, and cache keys carry the graph
//     identity token plus the epoch so stale bodies can never replay.
//
// See docs/SERVING.md for the HTTP API and docs/UPDATES.md for the
// mutation contract.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/delta"
	"pasgal/internal/graph"
	"pasgal/internal/msbfs"
	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when a query dies because its client disconnected. The typed
// core.ErrCanceled maps here; core.ErrDeadline maps to 504.
const StatusClientClosedRequest = 499

// DefaultCacheEntries is the default result-cache bound.
const DefaultCacheEntries = 256

// DefaultMaxTimeout caps per-request ?timeout= values and is the implicit
// deadline for requests that do not send one.
const DefaultMaxTimeout = 30 * time.Second

// Algos lists the query endpoints, in the order /metrics reports them.
var Algos = []string{"bfs", "sssp", "scc", "kcore", "reachable", "p2p"}

// Config tunes a Server. The zero value selects defaults.
type Config struct {
	// MaxConcurrent bounds concurrently executing parallel computations
	// (the admission controller's capacity); <= 0 selects the worker-team
	// size, so admitted queries never oversubscribe the scheduler.
	MaxConcurrent int

	// CacheEntries bounds the LRU result cache; 0 selects
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int

	// MaxTimeout caps ?timeout= and is the implicit per-query deadline;
	// <= 0 selects DefaultMaxTimeout.
	MaxTimeout time.Duration

	// CoalesceWait is the coalescer's flush latency bound; <= 0 selects
	// msbfs.DefaultMaxWait.
	CoalesceWait time.Duration

	// DisableCoalesce turns off the coalesced single-source BFS /
	// reachability path: every query runs its own traversal under its
	// own admission slot (the ?coalesce=off A/B, server-wide).
	DisableCoalesce bool

	// Opt is the base algorithm configuration. Its Ctx is ignored (each
	// query binds its own request context); its Tracer, when nil, is
	// replaced by a server-private tracer that feeds /metrics.
	Opt core.Options

	// WeightSeed seeds the weights in [1, 256] sssp/p2p see on an
	// unweighted graph (0 selects 1): graph.UniformWeight of (seed,
	// endpoints), hashed at scan time, so no weighted copy exists and an
	// edge keeps its weight across representations and mutations.
	WeightSeed uint64

	// Mutable serves every plain-CSR graph through a delta.Store: queries
	// pin an immutable epoch snapshot, and POST /update applies
	// insert/delete batches that publish new epochs. Mutable serving
	// requires the plain representation (compressed and mmap-backed
	// graphs are rejected) and disables the coalescer — its lane batches
	// would otherwise mix sources from different epochs into one scan.
	Mutable bool

	// CompactFraction forwards to delta.Options for mutable graphs.
	CompactFraction float64
}

// graphIdent hands out process-unique graph identity tokens. Cache keys
// embed the token (plus the epoch) so entries can never outlive the
// exact graph value they were computed from — a second server, or the
// same name re-registered over different data, gets fresh keys.
var graphIdent atomic.Uint64

// servedGraph is one loaded graph, with no weighted copy: sssp/p2p scan
// it through graph.UniformWeights. It may be any graph.Adjacency: plain
// CSR, compressed (possibly a read-only mmap view), or — when served
// mutable — a delta.Store publishing Overlay epochs. pg is the plain form
// when there is one — kcore, the one algorithm not yet written over
// graph.Scanner, requires it and refuses the other representations
// instead of silently inflating a multi-gigabyte plain copy inside a
// request handler.
type servedGraph struct {
	name  string
	ident uint64 // process-unique identity token (cache key component)
	g     graph.Adjacency
	pg    *graph.Graph     // non-nil iff g is a plain *graph.Graph
	coal  *msbfs.Coalescer // nil when coalescing is disabled
	store *delta.Store     // non-nil iff the graph is served mutable

	weightSeed uint64 // UniformWeights seed for sssp/p2p on an unweighted graph
	sOnce      sync.Once
	sym        *graph.Graph // pg, or pg.Symmetrized() for kcore
	updates    atomic.Int64 // /update batches accepted
}

// plain returns the plain-CSR form, or a client error for kcore, which
// only runs on it. Mutable graphs are refused too: kcore memoizes the
// symmetrized variant, which cannot be keyed to a moving epoch.
func (sg *servedGraph) plain() (*graph.Graph, error) {
	if sg.store != nil {
		return nil, fmt.Errorf(
			"algo kcore is not supported on mutable graph %q; serve it without -mutable for this query",
			sg.name)
	}
	if sg.pg == nil {
		return nil, fmt.Errorf(
			"algo kcore is not supported on compressed graph %q; serve the plain representation for this query",
			sg.name)
	}
	return sg.pg, nil
}

// symmetrized returns the undirected serving variant (for kcore). Only
// valid after plain() succeeded.
func (sg *servedGraph) symmetrized() *graph.Graph {
	sg.sOnce.Do(func() {
		if !sg.pg.Directed {
			sg.sym = sg.pg
			return
		}
		sg.sym = sg.pg.Symmetrized()
	})
	return sg.sym
}

// Server is the query daemon. Create with New, mount Handler on an
// http.Server (or httptest.Server), and Close to drain.
type Server struct {
	graphs   map[string]*servedGraph
	tracer   *trace.Tracer
	baseOpt  core.Options // normalized, Ctx stripped, Tracer attached
	baseNorm core.Options // baseOpt with Tracer stripped too (comparisons)
	maxWait  time.Duration
	adm      *admission
	cache    *resultCache
	cacheCap int
	mux      *http.ServeMux
	started  time.Time

	// drainMu orders the draining flip against in-flight registration:
	// handlers take the read side to check-and-join, Close takes the
	// write side to flip, so no query joins after the drain began.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	queries      atomic.Int64
	failures     atomic.Int64
	canceledQ    atomic.Int64
	deadlinedQ   atomic.Int64
	byAlgo       map[string]*atomic.Int64
	coalesced    atomic.Int64 // queries answered through the coalescer
	cacheBypass  atomic.Int64 // queries that opted out of the cache
	drainStarted atomic.Int64 // unix nanos, 0 while serving
}

// New returns a Server over the named plain-CSR graphs. Do not mutate
// the graphs after this call. NewAdj additionally accepts compressed
// representations.
func New(graphs map[string]*graph.Graph, cfg Config) (*Server, error) {
	adj := make(map[string]graph.Adjacency, len(graphs))
	for name, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("serve: graph %q is nil", name)
		}
		adj[name] = g
	}
	return NewAdj(adj, cfg)
}

// NewAdj returns a Server over the named graphs in any graph.Adjacency
// representation: plain *graph.Graph or *graph.Compressed (including
// read-only mmap views from gio.MapPZFile — the server never writes to a
// graph). bfs, sssp, scc, reachable, and p2p run on every representation,
// through the same kernel bodies; kcore requires plain CSR and answers
// 400 otherwise. Do not mutate the graphs after this call.
func NewAdj(graphs map[string]graph.Adjacency, cfg Config) (*Server, error) {
	if len(graphs) == 0 {
		return nil, errors.New("serve: no graphs to serve")
	}
	opt := cfg.Opt
	opt.Ctx = nil
	if opt.Tracer == nil {
		opt.Tracer = trace.New()
	}
	opt = opt.Normalized()
	norm := opt
	norm.Tracer = nil

	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = parallel.Workers()
	}
	cacheCap := cfg.CacheEntries
	if cacheCap == 0 {
		cacheCap = DefaultCacheEntries
	}
	maxWait := cfg.MaxTimeout
	if maxWait <= 0 {
		maxWait = DefaultMaxTimeout
	}
	s := &Server{
		graphs:   make(map[string]*servedGraph, len(graphs)),
		tracer:   opt.Tracer,
		baseOpt:  opt,
		baseNorm: norm,
		maxWait:  maxWait,
		adm:      newAdmission(maxConc),
		cache:    newResultCache(cacheCap),
		cacheCap: cacheCap,
		byAlgo:   make(map[string]*atomic.Int64, len(Algos)),
		started:  time.Now(),
	}
	for name, g := range graphs {
		if name == "" {
			return nil, errors.New("serve: empty graph name")
		}
		sg := &servedGraph{name: name, ident: graphIdent.Add(1), g: g, weightSeed: max(cfg.WeightSeed, 1)}
		switch t := g.(type) {
		case *graph.Graph:
			if t == nil {
				return nil, fmt.Errorf("serve: graph %q is nil", name)
			}
			if err := t.Validate(); err != nil {
				return nil, fmt.Errorf("serve: graph %q: %w", name, err)
			}
			sg.pg = t
		case *graph.Compressed:
			if t == nil {
				return nil, fmt.Errorf("serve: graph %q is nil", name)
			}
			if cfg.Mutable {
				return nil, fmt.Errorf(
					"serve: graph %q: mutable serving requires the plain representation", name)
			}
			// No full Validate here: it decodes every adjacency list, which
			// would fault the whole file in for an mmap-backed graph and
			// destroy the O(page-in) startup. gio.ReadPZ already validated
			// untrusted input; only the O(1) structural subset runs here.
			voff := t.VOff()
			if len(voff) != t.NumVertices()+1 ||
				voff[0] != 0 || voff[t.NumVertices()] != uint64(len(t.Data())) {
				return nil, fmt.Errorf("serve: graph %q: inconsistent compressed offsets", name)
			}
		default:
			return nil, fmt.Errorf("serve: graph %q: unsupported representation %T", name, g)
		}
		if cfg.Mutable {
			sg.store = delta.NewStore(sg.pg, delta.Options{CompactFraction: cfg.CompactFraction})
		}
		// The coalescer group-commits concurrent sources into one lane
		// scan; on a mutable graph two coalesced queries could be pinned
		// to different epochs, so the shared scan is unsound there.
		if !cfg.DisableCoalesce && sg.store == nil {
			sg.coal = msbfs.NewCoalescer(g, msbfs.CoalescerOptions{
				MaxWait: cfg.CoalesceWait,
				Opt:     opt,
				// One admission slot per flushed batch: up to 64
				// coalesced queries ride a single scheduler admission.
				Gate: func() func() {
					s.adm.acquireBatch()
					return s.adm.release
				},
			})
		}
		s.graphs[name] = sg
	}
	for _, algo := range Algos {
		s.byAlgo[algo] = new(atomic.Int64)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query/bfs", s.handleBFS)
	s.mux.HandleFunc("/query/sssp", s.handleSSSP)
	s.mux.HandleFunc("/query/scc", s.handleSCC)
	s.mux.HandleFunc("/query/kcore", s.handleKCore)
	s.mux.HandleFunc("/query/reachable", s.handleReachable)
	s.mux.HandleFunc("/query/p2p", s.handleP2P)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/graphs", s.handleGraphs)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Tracer returns the tracer feeding /metrics (the server-private one
// unless Config.Opt.Tracer was set).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Close drains the server: new queries are refused with 503, queued
// coalescer batches flush, and Close returns once every in-flight query
// handler has finished. Safe to call more than once.
func (s *Server) Close() {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return
	}
	s.drainStarted.Store(time.Now().UnixNano())
	for _, sg := range s.graphs {
		if sg.coal != nil {
			sg.coal.Close()
		}
	}
	s.inflight.Wait()
	// Stores close after the last in-flight query released its snapshot.
	for _, sg := range s.graphs {
		if sg.store != nil {
			sg.store.Close()
		}
	}
}

// join registers an in-flight query handler, or reports false when the
// server is draining. The returned leave must run when the handler ends.
func (s *Server) join() (leave func(), ok bool) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	return s.inflight.Done, true
}

// bindCtx wraps the request context with the effective per-query
// deadline: ?timeout= when present (capped at MaxTimeout), MaxTimeout
// otherwise. The request context already dies on client disconnect.
func (s *Server) bindCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.maxWait
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		td, err := time.ParseDuration(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("bad timeout %q: %v", raw, err)
		}
		if td <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q: must be positive", raw)
		}
		if td < d {
			d = td
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// typedErr normalizes raw context causes (from admission waits and
// coalescer submits abandoned mid-queue) into the library's typed
// sentinels, so every failure path maps to one status code table.
func typedErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrCanceled) || errors.Is(err, core.ErrDeadline):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", core.ErrDeadline, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", core.ErrCanceled, err)
	default:
		return err
	}
}

// statusOf maps a query error to its HTTP status: client disconnects to
// 499, expired deadlines to 504, drain refusals to 503.
func statusOf(err error) int {
	switch {
	case errors.Is(err, core.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, msbfs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
