package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"pasgal/internal/serve"
)

// loadConfig drives one load-generation run against a live daemon.
type loadConfig struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string

	// Graph names the served graph to query ("" picks one from /graphs).
	Graph string

	// Clients is the number of concurrent request loops; <= 0 selects 8.
	Clients int

	// Requests is the total request budget across all clients; <= 0
	// selects Clients * 32. Duration, when positive, stops the run early.
	Requests int
	Duration time.Duration

	// Mix weights the traffic per algorithm, e.g. {"bfs": 8, "p2p": 2}.
	// Empty selects defaultMix. Unknown algo names are an error.
	Mix map[string]int

	// Coalesce=false appends coalesce=off to bfs/reachable queries — the
	// A/B switch for measuring what coalescing buys.
	Coalesce bool

	// Cache=false appends cache=off to every query, so the run measures
	// compute throughput rather than cache-replay throughput.
	Cache bool

	// NumSources bounds the source-id space queries draw from; <= 0
	// selects min(n, 4096).
	NumSources int

	// Timeout is the per-request ?timeout= sent to the server (0 sends
	// none); the HTTP client allows an extra grace period on top.
	Timeout time.Duration

	// Seed makes the traffic deterministic.
	Seed uint64
}

// defaultMix is the standard mixed workload: traversal-heavy with a spread
// over every endpoint, the shape a social-graph query tier sees.
var defaultMix = map[string]int{
	"bfs": 8, "reachable": 4, "p2p": 4, "sssp": 2, "scc": 1, "kcore": 1,
}

// loadReport is the outcome of a load run. Latencies are seconds.
type loadReport struct {
	Graph    string  `json:"graph"`
	Clients  int     `json:"clients"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Seconds  float64 `json:"seconds"`
	QPS      float64 `json:"qps"`

	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`

	ByAlgo   map[string]int64 `json:"by_algo"`
	ByStatus map[string]int64 `json:"by_status"`
	// Dropped lists the mix's algorithms that were never sent because
	// /graphs says this graph answers them 400 by design.
	Dropped []string `json:"dropped,omitempty"`

	// Server-side counters snapshotted from /metrics after the run.
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	CoalescedQueries int64 `json:"coalesced_queries"`
	CoalescedBatches int64 `json:"coalesced_batches"`
	AdmissionPeak    int64 `json:"admission_peak"`
}

// runLoad drives cfg.Requests mixed queries at cfg.Clients concurrency
// and reports throughput and latency percentiles. The context cancels the
// run early (the report covers what completed).
func runLoad(ctx context.Context, cfg loadConfig) (*loadReport, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	base := strings.TrimRight(cfg.BaseURL, "/")
	clients := cfg.Clients
	if clients <= 0 {
		clients = 8
	}
	total := cfg.Requests
	if total <= 0 {
		total = clients * 32
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = defaultMix
	}
	httpc := &http.Client{Timeout: cfg.Timeout + serve.DefaultMaxTimeout}

	graphName, info, err := pickGraph(ctx, httpc, base, cfg.Graph)
	if err != nil {
		return nil, err
	}
	picker, err := newMixPicker(mix, info)
	if err != nil {
		return nil, err
	}
	numSrc := cfg.NumSources
	if numSrc <= 0 || numSrc > info.N {
		numSrc = min(info.N, 4096)
	}

	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// Pre-run counter snapshot, so the report covers THIS run's server
	// activity even against a long-lived daemon (best-effort: a missing
	// /metrics just zeroes the baseline).
	var before serve.MetricsResponse
	if _, err := fetch(ctx, httpc, base+"/metrics", &before); err != nil {
		before = serve.MetricsResponse{}
	}

	type clientResult struct {
		lats     []float64
		requests int64
		errors   int64
		byAlgo   map[string]int64
		byStatus map[string]int64
	}
	results := make([]clientResult, clients)
	next := make(chan int) // request tickets
	go func() {
		defer close(next)
		for i := 0; i < total; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(c)*7919))
			res := clientResult{
				byAlgo:   make(map[string]int64),
				byStatus: make(map[string]int64),
			}
			for range next {
				algo := picker.pick(rng)
				u := queryURL(base, graphName, algo, rng, numSrc, cfg)
				t0 := time.Now()
				status, err := fetch(ctx, httpc, u, nil)
				lat := time.Since(t0).Seconds()
				if ctx.Err() != nil {
					break
				}
				res.requests++
				res.byAlgo[algo]++
				if err != nil {
					res.errors++
					res.byStatus["transport"]++
					continue
				}
				res.byStatus[fmt.Sprintf("%d", status)]++
				if status != http.StatusOK {
					res.errors++
					continue
				}
				res.lats = append(res.lats, lat)
			}
			results[c] = res
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := &loadReport{
		Graph: graphName, Clients: clients, Seconds: elapsed, Dropped: picker.dropped,
		ByAlgo: make(map[string]int64), ByStatus: make(map[string]int64),
	}
	var lats []float64
	for _, res := range results {
		rep.Requests += res.requests
		rep.Errors += res.errors
		for k, v := range res.byAlgo {
			rep.ByAlgo[k] += v
		}
		for k, v := range res.byStatus {
			rep.ByStatus[k] += v
		}
		lats = append(lats, res.lats...)
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Requests) / elapsed
	}
	sort.Float64s(lats)
	rep.P50 = percentile(lats, 0.50)
	rep.P90 = percentile(lats, 0.90)
	rep.P99 = percentile(lats, 0.99)
	if len(lats) > 0 {
		rep.Max = lats[len(lats)-1]
	}
	// Best-effort server-side snapshot, as deltas against the pre-run
	// state; a dead server just leaves zeros. AdmissionPeak is a
	// server-lifetime high-water mark, not a delta.
	var m serve.MetricsResponse
	if _, err := fetch(context.Background(), httpc, base+"/metrics", &m); err == nil {
		rep.CacheHits = m.Cache.Hits - before.Cache.Hits
		rep.CacheMisses = m.Cache.Misses - before.Cache.Misses
		rep.CoalescedQueries = m.Coalescer.Queries - before.Coalescer.Queries
		rep.CoalescedBatches = m.Coalescer.Batches - before.Coalescer.Batches
		rep.AdmissionPeak = m.Admission.Peak
	}
	return rep, nil
}

// mixPicker draws algorithms from a weighted mix.
type mixPicker struct {
	algos   []string
	cumsum  []int
	totalWt int
	dropped []string
}

// newMixPicker drops from mix what gi's graph answers 400 by design: scc
// needs a directed graph, kcore a plain immutable one.
func newMixPicker(mix map[string]int, gi serve.GraphInfo) (*mixPicker, error) {
	known := make(map[string]bool, len(serve.Algos))
	for _, a := range serve.Algos {
		known[a] = true
	}
	p := &mixPicker{}
	// Deterministic order: iterate the canonical algo list.
	for _, algo := range serve.Algos {
		wt, ok := mix[algo]
		if !ok || wt <= 0 {
			continue
		}
		if algo == "scc" && !gi.Directed || algo == "kcore" && (gi.Compressed || gi.Mutable) {
			p.dropped = append(p.dropped, algo)
			continue
		}
		p.totalWt += wt
		p.algos = append(p.algos, algo)
		p.cumsum = append(p.cumsum, p.totalWt)
	}
	for algo := range mix {
		if !known[algo] {
			return nil, fmt.Errorf("loadgen: unknown algo %q in mix", algo)
		}
	}
	if p.totalWt == 0 {
		return nil, fmt.Errorf("loadgen: empty traffic mix (unanswerable on this graph: %v)", p.dropped)
	}
	return p, nil
}

func (p *mixPicker) pick(rng *rand.Rand) string {
	x := rng.Intn(p.totalWt)
	for i, c := range p.cumsum {
		if x < c {
			return p.algos[i]
		}
	}
	return p.algos[len(p.algos)-1]
}

// queryURL builds one request URL for the drawn algorithm.
func queryURL(base, graphName, algo string, rng *rand.Rand, numSrc int, cfg loadConfig) string {
	v := url.Values{}
	v.Set("graph", graphName)
	switch algo {
	case "bfs", "sssp", "reachable":
		v.Set("src", fmt.Sprintf("%d", rng.Intn(numSrc)))
	case "p2p":
		v.Set("src", fmt.Sprintf("%d", rng.Intn(numSrc)))
		v.Set("dst", fmt.Sprintf("%d", rng.Intn(numSrc)))
	case "scc", "kcore":
		// Whole-graph queries carry no vertex arguments.
	}
	if !cfg.Coalesce {
		v.Set("coalesce", "off")
	}
	if !cfg.Cache {
		v.Set("cache", "off")
	}
	if cfg.Timeout > 0 {
		v.Set("timeout", cfg.Timeout.String())
	}
	return base + "/query/" + algo + "?" + v.Encode()
}

// fetch issues one GET and decodes the JSON body into out, or, with a nil
// out, fully drains it (keep-alive reuse).
func fetch(ctx context.Context, httpc *http.Client, u string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// pickGraph resolves the graph to target and its /graphs inventory entry.
func pickGraph(ctx context.Context, httpc *http.Client, base, want string) (string, serve.GraphInfo, error) {
	var gr serve.GraphsResponse
	if _, err := fetch(ctx, httpc, base+"/graphs", &gr); err != nil {
		return "", serve.GraphInfo{}, fmt.Errorf("loadgen: %s/graphs: %w", base, err)
	}
	if want != "" {
		info, ok := gr.Graphs[want]
		if !ok {
			return "", serve.GraphInfo{}, fmt.Errorf("loadgen: server does not serve graph %q", want)
		}
		return want, info, nil
	}
	// Deterministic pick: smallest name wins.
	names := make([]string, 0, len(gr.Graphs))
	for name := range gr.Graphs {
		names = append(names, name)
	}
	if len(names) == 0 {
		return "", serve.GraphInfo{}, errors.New("loadgen: server serves no graphs")
	}
	sort.Strings(names)
	return names[0], gr.Graphs[names[0]], nil
}

// percentile returns the nearest-rank pth percentile (0 < p <= 1) of
// sorted samples: the ceil(p*n)-th smallest.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// writeReport renders rep as an aligned human-readable summary.
func writeReport(w io.Writer, rep *loadReport) {
	fmt.Fprintf(w, "loadgen: %d requests in %.2fs over %d clients on graph %q\n",
		rep.Requests, rep.Seconds, rep.Clients, rep.Graph)
	fmt.Fprintf(w, "  throughput  %.0f queries/sec (%d errors)\n", rep.QPS, rep.Errors)
	fmt.Fprintf(w, "  latency     p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		rep.P50*1e3, rep.P90*1e3, rep.P99*1e3, rep.Max*1e3)
	if rep.CoalescedBatches > 0 {
		fmt.Fprintf(w, "  coalescing  %d queries over %d batches (%.1fx scan sharing)\n",
			rep.CoalescedQueries, rep.CoalescedBatches,
			float64(rep.CoalescedQueries)/float64(rep.CoalescedBatches))
	}
	if rep.CacheHits+rep.CacheMisses > 0 {
		fmt.Fprintf(w, "  cache       %d hits / %d misses\n", rep.CacheHits, rep.CacheMisses)
	}
	fmt.Fprintf(w, "  admission   peak %d in flight\n", rep.AdmissionPeak)
	algos := make([]string, 0, len(rep.ByAlgo))
	for a := range rep.ByAlgo {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	var parts []string
	for _, a := range algos {
		parts = append(parts, fmt.Sprintf("%s=%d", a, rep.ByAlgo[a]))
	}
	fmt.Fprintf(w, "  mix         %s\n", strings.Join(parts, " "))
	if len(rep.Dropped) > 0 {
		fmt.Fprintf(w, "  dropped     %s (this graph answers them 400 by design)\n", strings.Join(rep.Dropped, " "))
	}
}
