package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
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

// SSSPResponse answers /query/sssp (weighted distances; see handleSSSP).
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

// KCoreResponse answers /query/kcore (on the symmetrized variant).
// ?summary=1 omits the Core array.
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
// served through a delta.Store (POST /update applies); kcore is
// unavailable on both. Epoch is a mutable graph's currently published
// epoch and M its current arc count — both move under updates.
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

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Graphs        int     `json:"graphs"`
	Inflight      int64   `json:"inflight"`
	Rounds        int64   `json:"rounds"`
	Cancels       int64   `json:"cancels"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// query carries one parsed request through a handler.
type query struct {
	s        *Server
	sg       *servedGraph
	algo     string
	ctx      context.Context
	stop     context.CancelFunc
	leave    func()
	opt      core.Options // per-request options, Ctx bound
	norm     core.Options // normalized, Ctx+Tracer stripped (cache key basis)
	useCache bool
	coalesce bool // eligible for the coalesced single-source path
	summary  bool // ?summary=1: omit the per-vertex result array

	// Mutable graphs: the pinned epoch snapshot the whole query answers
	// from. sn stays nil for immutable graphs, where view == sg.g and
	// epoch is 0 forever.
	sn    *delta.Snapshot
	view  graph.Adjacency
	epoch uint64
}

// begin does the work every query endpoint shares: method check, drain
// check, graph lookup, option/timeout parsing, and per-algo accounting.
// On a false return the response has been written. Callers must defer
// q.end() on success.
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
	opt, err := s.parseOptions(params)
	if err != nil {
		q.end()
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	q.norm = opt.Normalized()
	q.norm.Ctx = nil
	q.norm.Tracer = nil
	q.useCache = params.Get("cache") != "off"
	if !q.useCache {
		s.cacheBypass.Add(1)
	}
	q.summary = params.Get("summary") == "1" || params.Get("summary") == "true"
	q.coalesce = q.sg.coal != nil && params.Get("coalesce") != "off" && q.norm == s.baseNorm
	ctx, cancel, err := s.bindCtx(r)
	if err != nil {
		q.end()
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	q.ctx, q.stop = ctx, cancel
	opt.Ctx = ctx
	opt.Tracer = s.tracer
	q.opt = opt
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

// parseOptions builds the per-request algorithm options from the base
// configuration plus the recognized override parameters.
func (s *Server) parseOptions(params map[string][]string) (core.Options, error) {
	opt := s.baseOpt
	get := func(key string) string {
		if vs := params[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	if raw := get("tau"); raw != "" {
		tau, err := strconv.Atoi(raw)
		if err != nil {
			return opt, fmt.Errorf("bad tau %q", raw)
		}
		opt.Tau = tau
	}
	if raw := get("densefrac"); raw != "" {
		df, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return opt, fmt.Errorf("bad densefrac %q", raw)
		}
		opt.DenseFrac = df
	}
	if raw := get("nobag"); raw == "1" || raw == "true" {
		opt.DisableHashBag = true
	}
	if raw := get("nodir"); raw == "1" || raw == "true" {
		opt.DisableDirectionOpt = true
	}
	return opt, nil
}

// key builds the cache key for this query: graph identity and epoch,
// algo, the query's vertex arguments, and the normalized option fields
// that can change the response body. Requests spelling the same
// effective options differently (tau=0 vs tau=512, densefrac=0 vs
// densefrac=0.05) land on one key because Options.Normalized resolved
// the sentinels in q.norm.
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
	fmt.Fprintf(&b, "|tau=%d,df=%g,bag=%t,dir=%t,trim=%d,sum=%t",
		q.norm.Tau, q.norm.DenseFrac, q.norm.DisableHashBag,
		q.norm.DisableDirectionOpt, q.norm.TrimRounds, q.summary)
	return b.String()
}

// vertex parses one vertex-id parameter and range-checks it against the
// query's graph.
func (q *query) vertex(params map[string][]string, key string) (uint32, error) {
	vs := params[key]
	if len(vs) == 0 || vs[0] == "" {
		return 0, fmt.Errorf("missing %s", key)
	}
	v, err := strconv.ParseUint(vs[0], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, vs[0])
	}
	if n := q.view.NumVertices(); v >= uint64(n) {
		return 0, fmt.Errorf("%s %d out of range [0, %d)", key, v, n)
	}
	return uint32(v), nil
}

// vertexList parses a comma-separated vertex-id list.
func (q *query) vertexList(params map[string][]string, key string) ([]uint32, error) {
	vs := params[key]
	if len(vs) == 0 || vs[0] == "" {
		return nil, fmt.Errorf("missing %s", key)
	}
	parts := strings.Split(vs[0], ",")
	out := make([]uint32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q", key, p)
		}
		if n := q.view.NumVertices(); v >= uint64(n) {
			return nil, fmt.Errorf("%s %d out of range [0, %d)", key, v, n)
		}
		out = append(out, uint32(v))
	}
	return out, nil
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
// participates), and writes it with a cache-miss marker.
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
	writeBody(w, body, false)
}

// run executes fn under an admission slot bound to the query's context.
func (q *query) run(fn func() error) error {
	if err := q.s.adm.acquire(q.ctx); err != nil {
		return err
	}
	defer q.s.adm.release()
	return fn()
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

// handleBFS serves /query/bfs?graph=G&src=V: hop distances from src.
// Default-option single-source queries ride the coalescer — concurrent
// submitters group-commit into one MS-BFS lane run charging one admission
// slot — unless ?coalesce=off asks for a dedicated traversal.
func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "bfs")
	if !ok {
		return
	}
	defer q.end()
	src, err := q.vertex(r.URL.Query(), "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.key(src)
	if q.cached(w, key) {
		return
	}
	var dist []uint32
	if q.coalesce {
		s.coalesced.Add(1)
		dist, err = q.sg.coal.Submit(q.ctx, src)
		err = typedErr(err)
	} else {
		err = q.run(func() error {
			var runErr error
			dist, _, runErr = core.BFS(q.view, src, q.opt)
			return runErr
		})
	}
	if err != nil {
		q.fail(w, err)
		return
	}
	reached, ecc := distSummary(dist)
	if q.summary {
		dist = nil
	}
	q.finish(w, key, BFSResponse{
		Graph: q.sg.name, Algo: "bfs", Src: src,
		Reached: reached, Ecc: ecc, Dist: dist,
	})
}

// handleSSSP serves /query/sssp?graph=G&src=V: shortest-path distances on
// the pinned view, whose arcs weigh graph.UniformWeight under the weight
// seed when the graph stores no weights.
func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "sssp")
	if !ok {
		return
	}
	defer q.end()
	src, err := q.vertex(r.URL.Query(), "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.key(src)
	if q.cached(w, key) {
		return
	}
	var dist []uint64
	err = q.run(func() error {
		var runErr error
		dist, _, runErr = core.SSSP(graph.UniformWeights(q.view, 1, 1<<8, q.sg.weightSeed), src, nil, q.opt)
		return runErr
	})
	if err != nil {
		q.fail(w, err)
		return
	}
	reached := 0
	for _, d := range dist {
		if d != core.InfWeight {
			reached++
		}
	}
	if q.summary {
		dist = nil
	}
	q.finish(w, key, SSSPResponse{
		Graph: q.sg.name, Algo: "sssp", Src: src, Reached: reached, Dist: dist,
	})
}

// handleSCC serves /query/scc?graph=G: per-vertex strongly-connected-
// component labels and the component count on the query's pinned view.
func (s *Server) handleSCC(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "scc")
	if !ok {
		return
	}
	defer q.end()
	if !q.view.IsDirected() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("graph %q is undirected; scc requires a directed graph", q.sg.name))
		return
	}
	key := q.key()
	if q.cached(w, key) {
		return
	}
	var labels []uint32
	var count int
	err := q.run(func() error {
		var runErr error
		labels, count, _, runErr = core.SCC(q.view, q.opt)
		return runErr
	})
	if err != nil {
		q.fail(w, err)
		return
	}
	if q.summary {
		labels = nil
	}
	q.finish(w, key, SCCResponse{
		Graph: q.sg.name, Algo: "scc", Components: count, Labels: labels,
	})
}

// handleKCore serves /query/kcore?graph=G: coreness per vertex and the
// degeneracy, on the symmetrized variant.
func (s *Server) handleKCore(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "kcore")
	if !ok {
		return
	}
	defer q.end()
	if _, err := q.sg.plain(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.key()
	if q.cached(w, key) {
		return
	}
	var coreness []uint32
	var degeneracy int
	err := q.run(func() error {
		var runErr error
		coreness, degeneracy, _, runErr = core.KCore(q.sg.symmetrized(), q.opt)
		return runErr
	})
	if err != nil {
		q.fail(w, err)
		return
	}
	if q.summary {
		coreness = nil
	}
	q.finish(w, key, KCoreResponse{
		Graph: q.sg.name, Algo: "kcore", Degeneracy: degeneracy, Core: coreness,
	})
}

// handleReachable serves /query/reachable?graph=G&src=V[,V2,...]: the
// vertices reachable from any source. Default-option single-source
// queries derive the answer from a coalesced BFS row, sharing edge scans
// with concurrent bfs traffic.
func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "reachable")
	if !ok {
		return
	}
	defer q.end()
	srcs, err := q.vertexList(r.URL.Query(), "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.key(srcs...)
	if q.cached(w, key) {
		return
	}
	var reach []bool
	if q.coalesce && len(srcs) == 1 {
		s.coalesced.Add(1)
		var dist []uint32
		dist, err = q.sg.coal.Submit(q.ctx, srcs[0])
		err = typedErr(err)
		if err == nil {
			reach = make([]bool, len(dist))
			for v, d := range dist {
				reach[v] = d != graph.InfDist
			}
		}
	} else {
		err = q.run(func() error {
			var runErr error
			reach, _, runErr = core.Reachable(q.view, srcs, q.opt)
			return runErr
		})
	}
	if err != nil {
		q.fail(w, err)
		return
	}
	count := 0
	for _, r := range reach {
		if r {
			count++
		}
	}
	if q.summary {
		reach = nil
	}
	q.finish(w, key, ReachableResponse{
		Graph: q.sg.name, Algo: "reachable", Srcs: srcs, Count: count, Reachable: reach,
	})
}

// handleP2P serves /query/p2p?graph=G&src=U&dst=V: the shortest-path
// distance from src to dst, weighted as in handleSSSP, with goal-directed
// pruning.
func (s *Server) handleP2P(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "p2p")
	if !ok {
		return
	}
	defer q.end()
	params := r.URL.Query()
	src, err := q.vertex(params, "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	dst, err := q.vertex(params, "dst")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.key(src, dst)
	if q.cached(w, key) {
		return
	}
	var dist uint64
	err = q.run(func() error {
		var runErr error
		dist, _, runErr = core.PointToPoint(graph.UniformWeights(q.view, 1, 1<<8, q.sg.weightSeed), src, dst, nil, q.opt)
		return runErr
	})
	if err != nil {
		q.fail(w, err)
		return
	}
	q.finish(w, key, P2PResponse{
		Graph: q.sg.name, Algo: "p2p", Src: src, Dst: dst,
		Reachable: dist != core.InfWeight, Dist: dist,
	})
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
			Compressed: sg.pg == nil,
		}
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
