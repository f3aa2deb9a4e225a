package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/delta"
	"pasgal/internal/graph"
	"pasgal/internal/trace"
)

// The response bodies. Exported so the load generator and the serving
// conformance suite decode exactly what the daemon encodes (uint64
// distances round-trip losslessly through Go's encoding/json into typed
// fields; InfDist/InfWeight sentinels mark unreachable).

// BFSResponse answers /query/bfs. With ?summary=1 the Dist array is
// omitted — only the aggregate fields ship, which matters when the
// serving cost is dominated by encoding an n-entry array.
type BFSResponse struct {
	Graph   string   `json:"graph"`
	Algo    string   `json:"algo"`
	Src     uint32   `json:"src"`
	Reached int      `json:"reached"`
	Ecc     uint32   `json:"ecc"`
	Dist    []uint32 `json:"dist,omitempty"`
}

// SSSPResponse answers /query/sssp (weighted distances; see query.weighted).
// ?summary=1 omits the Dist array.
type SSSPResponse struct {
	Graph   string   `json:"graph"`
	Algo    string   `json:"algo"`
	Src     uint32   `json:"src"`
	Reached int      `json:"reached"`
	Dist    []uint64 `json:"dist,omitempty"`
}

// SCCResponse answers /query/scc. ?summary=1 omits the Labels array.
type SCCResponse struct {
	Graph      string   `json:"graph"`
	Algo       string   `json:"algo"`
	Components int      `json:"components"`
	Labels     []uint32 `json:"labels,omitempty"`
}

// KCoreResponse answers /query/kcore (a directed graph peels as its
// symmetric closure). ?summary=1 omits the Core array.
type KCoreResponse struct {
	Graph      string   `json:"graph"`
	Algo       string   `json:"algo"`
	Degeneracy int      `json:"degeneracy"`
	Core       []uint32 `json:"core,omitempty"`
}

// ReachableResponse answers /query/reachable. ?summary=1 omits the
// per-vertex Reachable array.
type ReachableResponse struct {
	Graph     string   `json:"graph"`
	Algo      string   `json:"algo"`
	Srcs      []uint32 `json:"srcs"`
	Count     int      `json:"count"`
	Reachable []bool   `json:"reachable,omitempty"`
}

// P2PResponse answers /query/p2p (weighted point-to-point distance;
// Dist holds core.InfWeight when dst is unreachable).
type P2PResponse struct {
	Graph     string `json:"graph"`
	Algo      string `json:"algo"`
	Src       uint32 `json:"src"`
	Dst       uint32 `json:"dst"`
	Reachable bool   `json:"reachable"`
	Dist      uint64 `json:"dist"`
}

// UpdateEdge is one edge in an /update batch. W is ignored on deletes and
// must be 0 on an unweighted graph, whose weights come from the seed.
type UpdateEdge struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
	W uint32 `json:"w,omitempty"`
}

// UpdateRequest is the POST /update body. Inserts and deletes apply as
// one atomic batch (inserts after deletes for the same edge win — the
// batch is canonicalized last-op-wins in request order, with all
// deletes ordered before all inserts).
type UpdateRequest struct {
	Inserts []UpdateEdge `json:"inserts,omitempty"`
	Deletes []UpdateEdge `json:"deletes,omitempty"`
}

// UpdateResponse answers POST /update. Epoch is the epoch queries see
// after this batch (unchanged when the batch was a no-op); Applied
// counts the arcs whose effective state actually changed.
type UpdateResponse struct {
	Graph   string `json:"graph"`
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// GraphInfo describes one served graph on /graphs and /metrics.
// Compressed marks graphs served from the difference-encoded
// representation (loaded from .pz, possibly mmap-backed), Mutable graphs
// served through a delta.Store (POST /update applies); every algorithm
// answers on both. Epoch is a mutable graph's currently published epoch
// and M its current arc count — both move under updates.
type GraphInfo struct {
	N          int    `json:"n"`
	M          int    `json:"m"`
	Directed   bool   `json:"directed"`
	Weighted   bool   `json:"weighted"`
	Compressed bool   `json:"compressed,omitempty"`
	Mutable    bool   `json:"mutable,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// GraphsResponse answers /graphs.
type GraphsResponse struct {
	Graphs map[string]GraphInfo `json:"graphs"`
}

// MetricsResponse answers /metrics. Updates is present only when the
// server runs mutable graphs, keyed by graph name.
type MetricsResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Draining      bool                   `json:"draining"`
	Queries       QueryStats             `json:"queries"`
	Cache         CacheStats             `json:"cache"`
	Admission     AdmissionStats         `json:"admission"`
	Coalescer     CoalescerStats         `json:"coalescer"`
	Stages        map[string]StageStats  `json:"stages"`
	Updates       map[string]UpdateStats `json:"updates,omitempty"`
	Tracer        map[string]int64       `json:"tracer"`
	Graphs        map[string]GraphInfo   `json:"graphs"`
}

// UpdateStats reports one mutable graph's delta store.
type UpdateStats struct {
	Batches     int64  `json:"batches"`      // /update requests accepted
	Epoch       uint64 `json:"epoch"`        // currently published epoch
	LiveEpochs  int    `json:"live_epochs"`  // current + pinned by queries
	AppliedArcs uint64 `json:"applied_arcs"` // arcs changed across all batches
	Compactions uint64 `json:"compactions"`  // overlay folds into fresh CSR
	PatchArcs   int    `json:"patch_arcs"`   // overlay size right now
}

// QueryStats aggregates request outcomes.
type QueryStats struct {
	Total           int64            `json:"total"`
	Failures        int64            `json:"failures"`
	Canceled        int64            `json:"canceled"`
	DeadlineExpired int64            `json:"deadline_expired"`
	Coalesced       int64            `json:"coalesced"`
	CacheBypassed   int64            `json:"cache_bypassed"`
	ByAlgo          map[string]int64 `json:"by_algo"`
}

// CacheStats reports the result cache.
type CacheStats struct {
	Enabled  bool  `json:"enabled"`
	Capacity int   `json:"capacity"`
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// AdmissionStats reports the admission controller. Peak is the high-water
// in-flight count — the conformance suite asserts Peak <= Capacity.
type AdmissionStats struct {
	Capacity  int   `json:"capacity"`
	Inflight  int64 `json:"inflight"`
	Peak      int64 `json:"peak"`
	Admitted  int64 `json:"admitted"`
	Waited    int64 `json:"waited"`
	Abandoned int64 `json:"abandoned"`
}

// CoalescerStats aggregates batching across all served graphs;
// Queries/Batches is the achieved scan-sharing factor.
type CoalescerStats struct {
	Enabled bool  `json:"enabled"`
	Queries int64 `json:"queries"`
	Batches int64 `json:"batches"`
}

// StageStats sums one algo's computed answers (cache hits excluded) by
// stage: WaitMs is the time spent queued for the admission slot, or in
// the coalescer until the answer's batch started; ComputeMs is the kernel
// or batch run. The same two figures ride each answer's Server-Timing
// header.
type StageStats struct {
	Count     int64   `json:"count"`
	WaitMs    float64 `json:"wait_ms"`
	ComputeMs float64 `json:"compute_ms"`
}

// stageClock accumulates one algo's StageStats.
type stageClock struct {
	count, waitNs, computeNs atomic.Int64
}

func (c *stageClock) stats() StageStats {
	return StageStats{
		Count:     c.count.Load(),
		WaitMs:    float64(c.waitNs.Load()) / 1e6,
		ComputeMs: float64(c.computeNs.Load()) / 1e6,
	}
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Graphs        int     `json:"graphs"`
	Inflight      int64   `json:"inflight"`
	Rounds        int64   `json:"rounds"`
	Cancels       int64   `json:"cancels"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// query carries one parsed request through handleQuery.
type query struct {
	s        *Server
	sg       *servedGraph
	algo     string
	ctx      context.Context
	stop     context.CancelFunc
	leave    func()
	opt      core.Options // the server's options, Ctx bound
	useCache bool
	coalesce bool // eligible for the coalesced single-source path
	summary  bool // ?summary=1: omit the per-vertex result array

	// The stage clock of a computed answer: wait is the admission (or
	// coalescer) queueing, compute the kernel (or batch) run.
	wait, compute time.Duration

	// Mutable graphs: the pinned epoch snapshot the whole query answers
	// from. sn stays nil for immutable graphs, where view == sg.g and
	// epoch is 0 forever.
	sn    *delta.Snapshot
	view  graph.Adjacency
	epoch uint64
}

// begin is handleQuery's first step: method check, drain check, graph
// lookup, epoch pin, cache=/summary=/coalesce=/timeout= parsing, and
// per-algo accounting. On a false return the response has been written;
// on success the caller must defer q.end().
func (s *Server) begin(w http.ResponseWriter, r *http.Request, algo string) (*query, bool) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return nil, false
	}
	leave, ok := s.join()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	q := &query{s: s, algo: algo, leave: leave}
	params := r.URL.Query()
	name := params.Get("graph")
	q.sg = s.graphs[name]
	if q.sg == nil {
		q.end()
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return nil, false
	}
	// Pin the epoch for the query's whole lifetime: every read (range
	// checks, the traversal, the cache key) sees one immutable view even
	// while /update batches publish new epochs concurrently.
	if q.sg.store != nil {
		q.sn = q.sg.store.Snapshot()
		q.view = q.sn.Adj()
		q.epoch = q.sn.Epoch()
	} else {
		q.view = q.sg.g
	}
	q.useCache = params.Get("cache") != "off"
	if !q.useCache {
		s.cacheBypass.Add(1)
	}
	q.summary = params.Get("summary") == "1" || params.Get("summary") == "true"
	q.coalesce = q.sg.coal != nil && params.Get("coalesce") != "off"
	ctx, cancel, err := s.bindCtx(r)
	if err != nil {
		q.end()
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	q.ctx, q.stop = ctx, cancel
	q.opt = s.baseOpt
	q.opt.Ctx = ctx
	s.queries.Add(1)
	s.byAlgo[algo].Add(1)
	return q, true
}

// end releases the query's snapshot pin, context binding, and in-flight
// registration.
func (q *query) end() {
	if q.sn != nil {
		q.sn.Release()
	}
	if q.stop != nil {
		q.stop()
	}
	q.leave()
}

// key builds the cache key for this query: graph identity and epoch,
// algo, the query's vertex arguments, and whether the body is a summary.
// Every query of a server runs with the same options, so they are not
// part of it.
//
// The key deliberately does NOT start with the graph's name alone: a
// name identifies a slot, not a value. The identity token pins the key
// to the exact registered graph, and the epoch advances with every
// /update batch, so a body cached before a mutation can never replay
// after it.
func (q *query) key(args ...uint32) string {
	var b strings.Builder
	b.WriteString(q.sg.name)
	fmt.Fprintf(&b, "#%d@%d", q.sg.ident, q.epoch)
	b.WriteByte('|')
	b.WriteString(q.algo)
	for _, a := range args {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(uint64(a), 10))
	}
	fmt.Fprintf(&b, "|sum=%t", q.summary)
	return b.String()
}

// vertices parses rt's vertex parameters, in order, and range-checks
// every id against the query's pinned view. A list route's one parameter
// holds comma-separated ids. Every id, listed or single, is trimmed of
// spaces.
func (q *query) vertices(params url.Values, rt *route) ([]uint32, error) {
	var vs []uint32
	for _, key := range rt.vertices {
		raw := params.Get(key)
		if raw == "" {
			return nil, fmt.Errorf("missing %s", key)
		}
		parts, bad := []string{raw}, "bad %s %q"
		if rt.list {
			parts, bad = strings.Split(raw, ","), "bad %s entry %q"
		}
		for _, p := range parts {
			v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
			if err != nil {
				return nil, fmt.Errorf(bad, key, p)
			}
			if n := q.view.NumVertices(); v >= uint64(n) {
				return nil, fmt.Errorf("%s %d out of range [0, %d)", key, v, n)
			}
			vs = append(vs, uint32(v))
		}
	}
	return vs, nil
}

// fail writes the error response and bumps the failure counters.
func (q *query) fail(w http.ResponseWriter, err error) {
	err = typedErr(err)
	q.s.failures.Add(1)
	switch {
	case errors.Is(err, core.ErrDeadline):
		q.s.deadlinedQ.Add(1)
	case errors.Is(err, core.ErrCanceled):
		q.s.canceledQ.Add(1)
	}
	writeError(w, statusOf(err), err.Error())
}

// finish marshals resp, stores it in the cache under key (when the query
// participates), and writes it with a cache-miss marker and the stage
// clock, which it also adds to the algo's /metrics stages.
func (q *query) finish(w http.ResponseWriter, key string, resp any) {
	body, err := json.Marshal(resp)
	if err != nil {
		q.fail(w, err)
		return
	}
	body = append(body, '\n')
	if q.useCache {
		q.s.cache.put(key, body)
	}
	st := q.s.stages[q.algo]
	st.count.Add(1)
	st.waitNs.Add(int64(q.wait))
	st.computeNs.Add(int64(q.compute))
	w.Header().Set("Server-Timing", fmt.Sprintf("wait;dur=%.3f, compute;dur=%.3f",
		float64(q.wait)/1e6, float64(q.compute)/1e6))
	writeBody(w, body, false)
}

// run executes fn under an admission slot bound to the query's context,
// timing the wait for the slot and the run.
func (q *query) run(fn func() error) error {
	t0 := time.Now()
	if err := q.s.adm.acquire(q.ctx); err != nil {
		return err
	}
	defer q.s.adm.release()
	t1 := time.Now()
	err := fn()
	q.wait, q.compute = t1.Sub(t0), time.Since(t1)
	return err
}

// hops returns src's hop-distance row: from the coalescer, timing the
// wait until its batch started and the batch run, or, under
// ?coalesce=off or on a graph without one, from a core.BFS of its own
// under an admission slot.
func (q *query) hops(src uint32) ([]uint32, error) {
	if !q.coalesce {
		var dist []uint32
		err := q.run(func() (err error) {
			dist, _, err = core.BFS(q.view, src, q.opt)
			return err
		})
		return dist, err
	}
	q.s.coalesced.Add(1)
	t0 := time.Now()
	row, err := q.sg.coal.SubmitRow(q.ctx, src)
	if err != nil {
		return nil, typedErr(err)
	}
	q.wait, q.compute = row.Start.Sub(t0), row.End.Sub(row.Start)
	return row.Dist, nil
}

// weighted is the pinned view as sssp and p2p scan it: an unweighted
// graph's arcs weigh graph.UniformWeight under the weight seed.
func (q *query) weighted() graph.Adjacency {
	return graph.UniformWeights(q.view, 1, 1<<8, q.sg.weightSeed)
}

// keep returns xs, or nil under ?summary=1, whose answers omit their
// per-vertex array.
func keep[T any](q *query, xs []T) []T {
	if q.summary {
		return nil
	}
	return xs
}

// cached consults the result cache; on a hit the body is replayed
// byte-identically with a cache-hit marker.
func (q *query) cached(w http.ResponseWriter, key string) bool {
	if !q.useCache {
		return false
	}
	body, ok := q.s.cache.get(key)
	if !ok {
		return false
	}
	writeBody(w, body, true)
	return true
}

func writeBody(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Pasgal-Cache", "hit")
	} else {
		w.Header().Set("X-Pasgal-Cache", "miss")
	}
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Status: status})
}

// route is one /query/<algo> endpoint, and every part of it that is not
// the same for all: handleQuery runs each one through one sequence.
type route struct {
	algo     string
	vertices []string // vertex parameters, in cache-key order
	list     bool     // vertices[0] is a comma-separated id list
	directed bool     // the algo answers only on a directed graph
	// answer runs the kernel on q.view for the parsed vertices and builds
	// the response body; an error goes to q.fail.
	answer func(q *query, vs []uint32) (any, error)
}

// routes is the query path's table, in the order Algos lists it. Adding
// an algo is adding a row.
var routes = []route{
	// bfs?src=V: hop distances, through the coalescer (see hops).
	{algo: "bfs", vertices: []string{"src"}, answer: func(q *query, vs []uint32) (any, error) {
		dist, err := q.hops(vs[0])
		if err != nil {
			return nil, err
		}
		reached, ecc := distSummary(dist)
		return BFSResponse{Graph: q.sg.name, Algo: q.algo, Src: vs[0],
			Reached: reached, Ecc: ecc, Dist: keep(q, dist)}, nil
	}},
	// sssp?src=V: shortest-path distances on the weighted view.
	{algo: "sssp", vertices: []string{"src"}, answer: func(q *query, vs []uint32) (any, error) {
		var dist []uint64
		if err := q.run(func() (err error) {
			dist, _, err = core.SSSP(q.weighted(), vs[0], nil, q.opt)
			return err
		}); err != nil {
			return nil, err
		}
		reached := 0
		for _, d := range dist {
			if d != core.InfWeight {
				reached++
			}
		}
		return SSSPResponse{Graph: q.sg.name, Algo: q.algo, Src: vs[0],
			Reached: reached, Dist: keep(q, dist)}, nil
	}},
	// scc: strongly-connected-component labels and their count.
	{algo: "scc", directed: true, answer: func(q *query, _ []uint32) (any, error) {
		var labels []uint32
		var count int
		if err := q.run(func() (err error) {
			labels, count, _, err = core.SCC(q.view, q.opt)
			return err
		}); err != nil {
			return nil, err
		}
		return SCCResponse{Graph: q.sg.name, Algo: q.algo, Components: count, Labels: keep(q, labels)}, nil
	}},
	// kcore: coreness and degeneracy, a directed graph peeled as its
	// symmetric closure.
	{algo: "kcore", answer: func(q *query, _ []uint32) (any, error) {
		var coreness []uint32
		var degeneracy int
		if err := q.run(func() (err error) {
			coreness, degeneracy, _, err = core.KCore(q.view, q.opt)
			return err
		}); err != nil {
			return nil, err
		}
		return KCoreResponse{Graph: q.sg.name, Algo: q.algo, Degeneracy: degeneracy, Core: keep(q, coreness)}, nil
	}},
	// reachable?src=V[,V2,...]: the vertices any source reaches; one
	// source reads its BFS row, sharing scans with concurrent bfs traffic.
	{algo: "reachable", vertices: []string{"src"}, list: true, answer: func(q *query, srcs []uint32) (any, error) {
		var reach []bool
		if len(srcs) == 1 {
			dist, err := q.hops(srcs[0])
			if err != nil {
				return nil, err
			}
			reach = make([]bool, len(dist))
			for v, d := range dist {
				reach[v] = d != graph.InfDist
			}
		} else if err := q.run(func() (err error) {
			reach, _, err = core.Reachable(q.view, srcs, q.opt)
			return err
		}); err != nil {
			return nil, err
		}
		count := 0
		for _, r := range reach {
			if r {
				count++
			}
		}
		return ReachableResponse{Graph: q.sg.name, Algo: q.algo, Srcs: srcs,
			Count: count, Reachable: keep(q, reach)}, nil
	}},
	// p2p?src=U&dst=V: the weighted distance from src to dst, with
	// goal-directed pruning.
	{algo: "p2p", vertices: []string{"src", "dst"}, answer: func(q *query, vs []uint32) (any, error) {
		var dist uint64
		if err := q.run(func() (err error) {
			dist, _, err = core.PointToPoint(q.weighted(), vs[0], vs[1], nil, q.opt)
			return err
		}); err != nil {
			return nil, err
		}
		return P2PResponse{Graph: q.sg.name, Algo: q.algo, Src: vs[0], Dst: vs[1],
			Reachable: dist != core.InfWeight, Dist: dist}, nil
	}},
}

// handleQuery serves /query/<rt.algo>?graph=G&…: begin, the vertices
// parsed and range-checked, the route's directedness check, the cache,
// the answer, and q.fail or q.finish. A client error is a 400 written
// before the cache is consulted, and is not a failure.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, rt *route) {
	q, ok := s.begin(w, r, rt.algo)
	if !ok {
		return
	}
	defer q.end()
	vs, err := q.vertices(r.URL.Query(), rt)
	if err == nil && rt.directed && !q.view.IsDirected() {
		err = fmt.Errorf("graph %q is undirected; %s requires a directed graph", q.sg.name, rt.algo)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.key(vs...)
	if q.cached(w, key) {
		return
	}
	resp, err := rt.answer(q, vs)
	if err != nil {
		q.fail(w, err)
		return
	}
	q.finish(w, key, resp)
}

// handleUpdate serves POST /update?graph=G: one atomic insert/delete
// batch against a mutable graph. The response reports the epoch queries
// observe once the batch is published; in-flight queries keep answering
// from their pinned epochs. Deletes order before inserts, so a batch
// that deletes and re-inserts the same edge nets to the insert.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	leave, ok := s.join()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer leave()
	name := r.URL.Query().Get("graph")
	sg := s.graphs[name]
	if sg == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	if sg.store == nil {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("graph %q is not served mutable; restart with -mutable to accept updates", name))
		return
	}
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad update body: %v", err))
		return
	}
	batch := make([]delta.Update, 0, len(req.Inserts)+len(req.Deletes))
	for _, e := range req.Deletes {
		batch = append(batch, delta.Update{U: e.U, V: e.V, Op: delta.Delete})
	}
	for _, e := range req.Inserts {
		if e.W != 0 && !sg.g.HasWeights() {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"insert (%d,%d) sets w on unweighted graph %q: its sssp/p2p weights come from the weight seed",
				e.U, e.V, name))
			return
		}
		batch = append(batch, delta.Update{U: e.U, V: e.V, W: e.W, Op: delta.Insert})
	}
	res, err := sg.store.Apply(batch)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, delta.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	sg.updates.Add(1)
	writeJSON(w, UpdateResponse{Graph: name, Epoch: res.Epoch, Applied: res.Applied})
}

// handleGraphs serves /graphs: the loaded graph inventory.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, GraphsResponse{Graphs: s.graphInfos()})
}

func (s *Server) graphInfos() map[string]GraphInfo {
	infos := make(map[string]GraphInfo, len(s.graphs))
	for name, sg := range s.graphs {
		info := GraphInfo{
			N: sg.g.NumVertices(), M: sg.g.NumArcs(),
			Directed: sg.g.IsDirected(), Weighted: sg.g.HasWeights(),
		}
		_, info.Compressed = sg.g.(*graph.Compressed)
		if sg.store != nil {
			sn := sg.store.Snapshot()
			info.Mutable = true
			info.Epoch = sn.Epoch()
			info.M = sn.Adj().NumArcs()
			sn.Release()
		}
		infos[name] = info
	}
	return infos
}

// metricsTracerCounters lists the tracer counters /metrics exports.
var metricsTracerCounters = []trace.Counter{
	trace.CtrRounds, trace.CtrBottomUp, trace.CtrPhases, trace.CtrCancels,
	trace.CtrLaneScans, trace.CtrLoops, trace.CtrForks, trace.CtrSteals,
	trace.CtrParks, trace.CtrWakes,
}

// handleMetrics serves /metrics: query outcomes, cache and admission
// statistics, coalescer batching, and the tracer counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byAlgo := make(map[string]int64, len(s.byAlgo))
	for algo, ctr := range s.byAlgo {
		byAlgo[algo] = ctr.Load()
	}
	hits, misses := s.cache.stats()
	var coalQ, coalB int64
	coalesceOn := false
	for _, sg := range s.graphs {
		if sg.coal != nil {
			coalesceOn = true
			cq, cb := sg.coal.Stats()
			coalQ += cq
			coalB += cb
		}
	}
	stages := make(map[string]StageStats, len(s.stages))
	for algo, c := range s.stages {
		stages[algo] = c.stats()
	}
	tr := make(map[string]int64, len(metricsTracerCounters))
	for _, c := range metricsTracerCounters {
		tr[c.Name()] = s.tracer.CounterValue(c)
	}
	var updates map[string]UpdateStats
	for name, sg := range s.graphs {
		if sg.store == nil {
			continue
		}
		if updates == nil {
			updates = make(map[string]UpdateStats)
		}
		st := sg.store.Stats()
		updates[name] = UpdateStats{
			Batches: sg.updates.Load(), Epoch: st.Epoch,
			LiveEpochs: st.LiveEpochs, AppliedArcs: st.AppliedArcs,
			Compactions: st.Compactions, PatchArcs: st.PatchArcs,
		}
	}
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	writeJSON(w, MetricsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      draining,
		Queries: QueryStats{
			Total:           s.queries.Load(),
			Failures:        s.failures.Load(),
			Canceled:        s.canceledQ.Load(),
			DeadlineExpired: s.deadlinedQ.Load(),
			Coalesced:       s.coalesced.Load(),
			CacheBypassed:   s.cacheBypass.Load(),
			ByAlgo:          byAlgo,
		},
		Cache: CacheStats{
			Enabled: s.cache != nil, Capacity: max(s.cacheCap, 0),
			Entries: s.cache.len(), Hits: hits, Misses: misses,
		},
		Admission: AdmissionStats{
			Capacity: s.adm.cap, Inflight: s.adm.inflight.Load(),
			Peak: s.adm.peak.Load(), Admitted: s.adm.admitted.Load(),
			Waited: s.adm.waited.Load(), Abandoned: s.adm.abandoned.Load(),
		},
		Coalescer: CoalescerStats{Enabled: coalesceOn, Queries: coalQ, Batches: coalB},
		Stages:    stages,
		Updates:   updates,
		Tracer:    tr,
		Graphs:    s.graphInfos(),
	})
}

// handleHealthz serves /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	resp := HealthResponse{
		Status:        "ok",
		Graphs:        len(s.graphs),
		Inflight:      s.adm.inflight.Load(),
		Rounds:        s.tracer.CounterValue(trace.CtrRounds),
		Cancels:       s.tracer.CounterValue(trace.CtrCancels),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if draining {
		resp.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// distSummary returns the reached count and eccentricity of a BFS row.
func distSummary(dist []uint32) (reached int, ecc uint32) {
	for _, d := range dist {
		if d != graph.InfDist {
			reached++
			if d > ecc {
				ecc = d
			}
		}
	}
	return reached, ecc
}
