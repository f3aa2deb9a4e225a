package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pasgal"
	"pasgal/internal/delta"
	"pasgal/internal/gio"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/serve"
)

// target is where a request goes: the real daemon over HTTP, or an
// in-process serve.Server's handler.
type target interface {
	do(method, path string, body []byte) (status int, resp []byte, hdr http.Header, err error)
}

type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string) *httpTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: workers + 1}
	return &httpTarget{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (t *httpTarget) do(method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

type handlerTarget struct{ h http.Handler }

func (t handlerTarget) do(method, path string, body []byte) (int, []byte, http.Header, error) {
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rw.Code, rw.Body.Bytes(), rw.Header(), nil
}

// daemon is one running pasgal-serve process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	stderr   bytes.Buffer
	waited   chan error
	stopOnce sync.Once
	stopErr  error
}

// startDaemon spawns the binary on an ephemeral port and returns once it
// has printed the address it listens on.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{waited: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-workers", strconv.Itoa(workers)}, args...)...)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
		d.waited <- d.cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, fmt.Errorf("pasgal-serve exited before listening: %v\n%s", <-d.waited, d.stderr.String())
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.waited
		return nil, errors.New("pasgal-serve did not start listening within 60 s")
	}
}

// stop drains the daemon with SIGTERM and waits until it has ended. A
// second call returns the first one's outcome.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-d.waited:
			if err != nil {
				d.stopErr = fmt.Errorf("pasgal-serve: %v\n%s", err, d.stderr.String())
			}
		case <-time.After(40 * time.Second):
			d.cmd.Process.Kill()
			<-d.waited
			d.stopErr = errors.New("pasgal-serve did not drain within 40 s")
		}
	})
	return d.stopErr
}

// peakRSSMB reads the high-water resident set of process pid.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// serveRun is a serving workload ready to send requests.
type serveRun struct {
	spec  *servingSpec
	name  string // the served graph's name: the file's base name
	seed  uint64
	base  *graph.Graph // the generated graph: update batches name its arcs
	hot   []uint32
	cold  []uint32
	reach int
	or    *oracle // sequential answers for the hot sources
}

// bootDaemon is what setup_s times for a serving workload: process
// spawn, /healthz answering 200, and one query per algorithm answered.
// The warm-up queries build what the daemon builds lazily (transposes,
// the weighted variant); they bypass the cache so they leave it empty.
// The i-th set-up of a run asks from its own cold vertices: one sssp or
// p2p takes between half and twice the usual time depending on where it
// starts, and a median over set-ups that all ask the same question would
// measure that question.
func (s *serveRun) bootDaemon(e *env, p *prepared, i int) (*daemon, float64, error) {
	args := []string{"-graph", p.binPath, "-mutable", "-compact-fraction", fmt.Sprint(compactFraction)}
	if s.spec.pz {
		args = []string{"-graph", p.pzPath, "-mmap"}
	}
	t := time.Now()
	d, err := startDaemon(e.serveBin, args...)
	if err != nil {
		return nil, 0, err
	}
	ht := newHTTPTarget(d.base)
	if st, _, _, err := ht.do("GET", "/healthz", nil); err != nil || st != 200 {
		d.stop()
		return nil, 0, fmt.Errorf("/healthz: status %d: %v", st, err)
	}
	for _, m := range mixWeights {
		r := request{algo: m.algo, src: s.cold[2*i], dst: s.cold[2*i+1]}
		if st, body, _, err := ht.do("GET", r.path(s.name)+"&cache=off", nil); err != nil || st != 200 {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up %s: status %d: %v %s", m.algo, st, err, body)
		}
	}
	return d, time.Since(t).Seconds(), nil
}

// check compares one read's answer with the oracle and returns what is
// wrong with it, or nil. Every source is in the giant SCC, so every
// source reaches the same s.reach vertices; the hot sources have full
// sequential answers. strict is off while the writer is mutating the
// graph: then only the shape of the answer is checked, and finalCheck
// compares values once the writer has stopped.
func (s *serveRun) check(r request, status int, body []byte, strict bool) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	n := s.base.N
	reached := func(got int) error {
		if strict && got != s.reach || !strict && got*reachFloor < n {
			return fmt.Errorf("reached %d vertices, want %d", got, s.reach)
		}
		return nil
	}
	wantLen := func(got int) error {
		if r.full && got != n {
			return fmt.Errorf("array of %d entries, want %d", got, n)
		}
		return nil
	}
	switch r.algo {
	case "bfs":
		var a serve.BFSResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if want, known := s.or.bfs[r.src]; strict && known && (a.Ecc != want.ecc || (r.full && sum32(a.Dist) != want.sum)) {
			return fmt.Errorf("ecc %d or distances differ from the sequential BFS (ecc %d)", a.Ecc, want.ecc)
		}
		return errors.Join(reached(a.Reached), wantLen(len(a.Dist)))
	case "reachable":
		var a serve.ReachableResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		return errors.Join(reached(a.Count), wantLen(len(a.Reachable)))
	case "sssp":
		var a serve.SSSPResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if want, known := s.or.sssp[r.src]; strict && known && r.full && sum64(a.Dist) != want.sum {
			return errors.New("distances differ from the sequential SSSP")
		}
		return errors.Join(reached(a.Reached), wantLen(len(a.Dist)))
	case "p2p":
		var a serve.P2PResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		// Under the writer a destination may lose its last in-arc: only
		// the echo of the question is checked then.
		want, known := s.or.sssp[r.src]
		switch {
		case a.Src != r.src || a.Dst != r.dst:
			return fmt.Errorf("answer is for %d→%d", a.Src, a.Dst)
		case strict && known && a.Dist != want.dist[r.dst]:
			return fmt.Errorf("distance %d, sequential SSSP says %d", a.Dist, want.dist[r.dst])
		case strict && !a.Reachable:
			return errors.New("destination reported unreachable")
		}
		return nil
	}
	return fmt.Errorf("unknown algorithm %q", r.algo)
}

// failures counts failed operations and shows the first few.
type failures struct {
	mu sync.Mutex
	n  int
}

func (f *failures) add(r request, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.n <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED %s src=%d dst=%d full=%t: %v\n", r.algo, r.src, r.dst, r.full, err)
	}
}

// readSample is one completed read.
type readSample struct {
	algo string
	ms   float64
}

// windowStats is what one load window measured.
type windowStats struct {
	seconds   float64
	reads     []readSample
	attempted int
	failed    failures
	updateMs  []float64 // per batch, from its due time
	lateMs    []float64 // how long after its due time each batch was sent
	updates   int       // batches the daemon accepted
}

// window loads the target for dur: `readers` closed-loop clients, each
// sending its next request when the last one is answered (callers of a
// graph service wait for their answer), and, for the mutable workload,
// one writer on an open-loop schedule of one batch per updatePeriodMs,
// timed from the moment the batch was due.
func (s *serveRun) window(t target, dur time.Duration, readers int, rec *spanRec) *windowStats {
	ws := &windowStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				r := requestAt(s.seed, c, k, s.spec, s.hot, s.cold)
				id := rec.begin("http.request", r.algo, 0, c<<24|k)
				t0 := time.Now()
				status, body, _, err := t.do("GET", r.path(s.name), nil)
				ms := msSince(t0)
				rec.end(id)
				if err == nil {
					err = s.check(r, status, body, !s.spec.mutable)
				}
				mu.Lock()
				ws.attempted++
				if err == nil {
					ws.reads = append(ws.reads, readSample{r.algo, ms})
				} else {
					ws.failed.add(r, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	if s.spec.mutable {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * updatePeriodMs * time.Millisecond)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				late := msSince(due)
				status, _, _, err := t.do("POST", "/update?graph="+s.name, updateBody(updateAt(s.seed, k, s.base)))
				mu.Lock()
				ws.attempted++
				if err == nil && status == 200 {
					ws.updates++
					ws.updateMs = append(ws.updateMs, msSince(due))
					ws.lateMs = append(ws.lateMs, late)
				} else {
					ws.failed.add(request{algo: "update"}, fmt.Errorf("status %d: %v", status, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ws.seconds = time.Since(start).Seconds()
	return ws
}

func updateBody(dels, ins []graph.Edge) []byte {
	var req serve.UpdateRequest
	for _, e := range dels {
		req.Deletes = append(req.Deletes, serve.UpdateEdge{U: e.U, V: e.V})
	}
	for _, e := range ins {
		req.Inserts = append(req.Inserts, serve.UpdateEdge{U: e.U, V: e.V})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of integers always marshals
	}
	return b
}

// mutatedGraph rebuilds, with graph.FromEdges, the graph the daemon must
// hold after the writer's first `batches` batches: within a batch deletes
// apply before inserts, and across batches the last operation on an arc
// wins.
func mutatedGraph(base *graph.Graph, seed uint64, batches int) *graph.Graph {
	key := func(e graph.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }
	present := map[uint64]bool{}
	for k := 0; k < batches; k++ {
		dels, ins := updateAt(seed, k, base)
		for _, e := range dels {
			present[key(e)] = false
		}
		for _, e := range ins {
			present[key(e)] = true
		}
	}
	var edges []graph.Edge
	for _, e := range arcsOf(base) {
		if keep, touched := present[key(e)]; !touched || keep {
			edges = append(edges, e)
		}
		delete(present, key(e))
	}
	for k, keep := range present {
		if keep {
			edges = append(edges, graph.Edge{U: uint32(k >> 32), V: uint32(k)})
		}
	}
	return graph.FromEdges(base.N, edges, true, graph.BuildOptions{})
}

// finalCheck runs once the writer has stopped: every hot source is
// queried with the cache off and compared, value for value, with the
// sequential answers on mutatedGraph.
func (s *serveRun) finalCheck(t target, batches int, failed *failures) (attempted int) {
	og := mutatedGraph(s.base, s.seed, batches)
	wog := weigh(og)
	final := &serveRun{spec: &servingSpec{}, name: s.name, base: og, hot: s.hot,
		or: traversalOracle(og, wog, s.hot, s.hot)}
	for i, src := range s.hot {
		for _, r := range []request{
			{algo: "bfs", src: src, full: true},
			{algo: "sssp", src: src, full: true},
			{algo: "reachable", src: src},
			{algo: "p2p", src: src, dst: s.hot[(i+1)%len(s.hot)]},
		} {
			// Sources of one SCC of the base graph need not reach the same
			// set after deletions: the count is compared per source.
			final.reach = final.or.bfs[src].reached
			status, body, _, err := t.do("GET", r.path(s.name)+"&cache=off", nil)
			attempted++
			if err == nil {
				err = final.check(r, status, body, true)
			}
			if err != nil {
				failed.add(r, err)
			}
		}
	}
	return attempted
}

func fetchMetrics(t target) (*serve.MetricsResponse, error) {
	status, body, _, err := t.do("GET", "/metrics", nil)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	var m serve.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

func runServing(e *env, w workload, dir string, traced bool) (*result, error) {
	p, err := prepare(e, w, dir)
	if err != nil {
		return nil, err
	}
	s := &serveRun{spec: w.serving, name: w.in.name, seed: e.seed, base: p.g,
		hot: p.pool[:hotIDs], cold: p.pool[hotIDs:], reach: p.reach}
	wg := weigh(p.g)
	s.or = traversalOracle(p.g, wg, s.hot, s.hot)

	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var secs float64
		if d, secs, err = s.bootDaemon(e, p, i); err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, secs)
	}
	defer d.stop()
	ht := newHTTPTarget(d.base)

	res := &result{}
	dur := time.Duration(e.seconds * float64(time.Second))
	var rec *spanRec
	if traced {
		dur /= tracedWindowFrac
		rec = newSpanRec()
	}
	readers := workers
	if s.spec.mutable {
		readers = max(workers-1, 1) // the writer is the other client
	}
	before, err := fetchMetrics(ht)
	if err != nil {
		return nil, err
	}
	ws := s.window(ht, dur, readers, rec)
	after, err := fetchMetrics(ht)
	if err != nil {
		return nil, err
	}
	res.attempted = ws.attempted
	if s.spec.mutable {
		// Quiesced: the writer has returned and no compaction changes
		// what a query answers.
		res.attempted += s.finalCheck(ht, ws.updates, &ws.failed)
	}
	res.failed = ws.failed.n
	rss := peakRSSMB(d.cmd.Process.Pid)
	if err := d.stop(); err != nil {
		return nil, err
	}

	counters := s.windowCounters(before, after, ws, dur, res)
	if !traced {
		s.endToEnd(p, ws, res)
		res.extras = append(res.extras, counters...)
		return res, nil
	}
	res.metrics = append(res.metrics, counters...)
	if err := s.replay(p, rec, res); err != nil {
		return nil, err
	}
	sym := p.g.Symmetrized()
	s.or.addComponents(p.g, sym) // the sheet compares the kernels with all four references
	if err := sheet(e, res, &sheetInput{p: p, g: p.g, wg: wg, sym: sym, or: s.or, daemonRSS: rss}); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(e.out, w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// windowCounters turns the /metrics deltas of a window into the daemon's
// layer counters, and applies the workload's self-checks: a window whose
// cache, compactions or writer did not behave as the workload's name
// says fails the run, so that a degenerate workload cannot report a win.
func (s *serveRun) windowCounters(before, after *serve.MetricsResponse, ws *windowStats, dur time.Duration, res *result) []metric {
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	hitShare := 0.0
	if hits+misses > 0 {
		hitShare = float64(hits) / float64(hits+misses)
	}
	width := 0.0
	if b := after.Coalescer.Batches - before.Coalescer.Batches; b > 0 {
		width = float64(after.Coalescer.Queries-before.Coalescer.Queries) / float64(b)
	}
	up := after.Updates[s.name]
	compactions := float64(up.Compactions - before.Updates[s.name].Compactions)
	out := []metric{
		{"serve.cache_hit_share", "ratio", hitShare, int(hits + misses)},
		{"serve.coalesce_width", "count", width, int(after.Coalescer.Batches - before.Coalescer.Batches)},
		{"serve.admission_peak", "count", float64(after.Admission.Peak), 1},
		{"delta.compactions", "count", compactions, 1},
		{"delta.patch_arcs", "count", float64(up.PatchArcs), 1},
	}
	fullWindow := dur.Seconds() >= runSeconds/2
	if s.spec.hot && fullWindow && (hitShare < hitShareLo || hitShare > hitShareHi) {
		res.notes = append(res.notes, fmt.Sprintf("cache hit share %.3f is outside [%g, %g]", hitShare, hitShareLo, hitShareHi))
	}
	if s.spec.mutable {
		if need := float64(int(dur.Seconds() / compactionPeriodS)); compactions < need {
			res.notes = append(res.notes, fmt.Sprintf("%g compactions in %v, fewer than %g", compactions, dur, need))
		}
		// The median, not a tail: one stall of the host delays a burst of
		// batches, but only a writer that cannot hold its rate is late
		// half of the time.
		if late := median(ws.lateMs); late > updatePeriodMs {
			res.notes = append(res.notes, fmt.Sprintf("writer ran %.1f ms late at the median, more than one period", late))
		}
	}
	return out
}

// endToEnd derives the gated metrics from an untraced window.
func (s *serveRun) endToEnd(p *prepared, ws *windowStats, res *result) {
	byAlgo := map[string][]float64{}
	var all []float64
	for _, r := range ws.reads {
		byAlgo[r.algo] = append(byAlgo[r.algo], r.ms)
		all = append(all, r.ms)
	}
	p95, used := tailPercentile(all, 0.95)
	p99, used99 := tailPercentile(all, 0.99)
	res.add("setup_s", "s", median(p.setupS), len(p.setupS))
	res.add("qps", "1/s", float64(len(all))/ws.seconds, len(all))
	res.add("query_p50_ms", "ms", median(all), len(all))
	res.add("query_p95_ms", "ms", p95, len(all))
	res.add("bfs_ms", "ms", median(byAlgo["bfs"]), len(byAlgo["bfs"]))
	res.add("sssp_ms", "ms", median(byAlgo["sssp"]), len(byAlgo["sssp"]))
	res.extra("query_tail_percentile", "ratio", used, len(all))
	res.extra("serve.query_p99_ms", "ms", p99, len(all))
	res.extra("serve.query_p99_percentile", "ratio", used99, len(all))
	for _, a := range []string{"reachable", "p2p"} {
		res.extra("serve."+a+"_p50_ms", "ms", median(byAlgo[a]), len(byAlgo[a]))
	}
	if s.spec.mutable {
		late, _ := tailPercentile(ws.lateMs, 0.95)
		res.extra("update_p50_ms", "ms", median(ws.updateMs), len(ws.updateMs))
		res.extra("serve.writer_late_ms", "ms", late, len(ws.lateMs))
	}
}

// replay is the traced run's in-process part. The prefix of client 0's
// request list goes through an in-process serve.Server's handler, and
// each computed request is then repeated as a direct kernel call on the
// same representation; the harness records request → serve.handler →
// core.compute, so the handler's self time is what the serving layer
// adds to the kernel. The list is replayed twice on fresh servers, first
// without spans: the difference is the tracing overhead.
func (s *serveRun) replay(p *prepared, rec *spanRec, res *result) error {
	pass := func(rec *spanRec) (handlerMs []float64, err error) {
		var adj graph.Adjacency = p.g
		cfg := serve.Config{}
		var store *delta.Store
		if s.spec.pz {
			c, unmap, err := gio.MapPZFile(p.pzPath)
			if err != nil {
				return nil, err
			}
			defer unmap()
			adj = c
		} else {
			cfg.Mutable, cfg.CompactFraction = true, compactFraction
			store = delta.NewStore(p.g, delta.Options{CompactFraction: compactFraction})
			defer store.Close()
		}
		srv, err := serve.NewAdj(map[string]graph.Adjacency{s.name: adj}, cfg)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ht := handlerTarget{srv.Handler()}
		direct := newDirectKernels(adj, store)
		for k := 0; k < tracedRequests; k++ {
			if store != nil && k%4 == 0 {
				dels, ins := updateAt(s.seed, k/4, s.base)
				root := rec.begin("request", "update", 0, k)
				h := rec.begin("serve.handler", "update", root, k)
				status, _, _, _ := ht.do("POST", "/update?graph="+s.name, updateBody(dels, ins))
				rec.end(h)
				rec.end(root)
				res.attempted++
				if status != 200 || direct.apply(dels, ins) != nil {
					res.failed++
				}
			}
			r := requestAt(s.seed, 0, k, s.spec, s.hot, s.cold)
			root := rec.begin("request", r.algo, 0, k)
			h := rec.begin("serve.handler", r.algo, root, k)
			t := time.Now()
			status, body, hdr, _ := ht.do("GET", r.path(s.name), nil)
			handlerMs = append(handlerMs, msSince(t))
			rec.end(h)
			err := s.check(r, status, body, !s.spec.mutable)
			rec.end(root)
			res.attempted++
			if err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "FAILED in-process %s src=%d: %v\n", r.algo, r.src, err)
			}
			if rec != nil && hdr.Get("X-Pasgal-Cache") != "hit" {
				d, err := direct.run(r)
				if err != nil {
					return nil, err
				}
				rec.place("core.compute", r.algo, h, k, d)
			}
		}
		return handlerMs, nil
	}
	plain, err := pass(nil)
	if err != nil {
		return err
	}
	before := parallel.SchedStats()
	traced, err := pass(rec)
	if err != nil {
		return err
	}
	after := parallel.SchedStats()
	res.add("parallel.steals", "count", float64(after.Steals-before.Steals), 1)
	res.add("parallel.parks", "count", float64(after.Parks-before.Parks), 1)
	res.add("trace.overhead_share", "ratio", (median(traced)-median(plain))/median(plain), len(traced))
	self := selfTimes(rec.spans)
	for _, name := range sortedKeys(self) {
		res.extra("self_ms."+name, "ms", median(self[name]), len(self[name]))
	}
	return nil
}

// directKernels repeats a served request as the direct public-API call
// on the same representation the server holds: the compressed graph, or
// the current overlay of a mirror delta store.
type directKernels struct {
	adj      graph.Adjacency
	store    *delta.Store
	weighted graph.Adjacency
	wEpoch   uint64
}

func newDirectKernels(adj graph.Adjacency, store *delta.Store) *directKernels {
	return &directKernels{adj: adj, store: store, wEpoch: ^uint64(0)}
}

func (d *directKernels) apply(dels, ins []graph.Edge) error {
	batch := make([]delta.Update, 0, len(dels)+len(ins))
	for _, e := range dels {
		batch = append(batch, delta.Update{U: e.U, V: e.V, Op: delta.Delete})
	}
	for _, e := range ins {
		batch = append(batch, delta.Update{U: e.U, V: e.V, Op: delta.Insert})
	}
	_, err := d.store.Apply(batch)
	return err
}

// run times the kernel call alone; building the weighted variant, which
// the server also does outside its kernel, is not in the returned time.
func (d *directKernels) run(r request) (time.Duration, error) {
	view := d.adj
	var epoch uint64
	if d.store != nil {
		sn := d.store.Snapshot()
		defer sn.Release()
		view, epoch = sn.Adj(), sn.Epoch()
	}
	if (r.algo == "sssp" || r.algo == "p2p") && (d.weighted == nil || d.wEpoch != epoch) {
		switch v := view.(type) {
		case *graph.Graph:
			d.weighted = weigh(v)
		case *graph.Overlay:
			d.weighted = weigh(v.Materialize())
		case *graph.Compressed:
			d.weighted = graph.Compress(weigh(v.Decompress()))
		}
		d.wEpoch = epoch
	}
	var err error
	t := time.Now()
	switch r.algo {
	case "bfs":
		_, _, err = pasgal.BFS(view, r.src, pasgal.Options{})
	case "reachable":
		_, _, err = pasgal.Reachable(view, []uint32{r.src}, pasgal.Options{})
	case "sssp":
		_, _, err = pasgal.SSSP(d.weighted, r.src, nil, pasgal.Options{})
	case "p2p":
		_, _, err = pasgal.PointToPoint(d.weighted, r.src, r.dst, nil, pasgal.Options{})
	}
	return time.Since(t), err
}
