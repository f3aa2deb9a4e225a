package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/serve"
)

// serveGraph starts an in-process daemon serving g as "g" on an
// ephemeral port, closed when the test ends.
func serveGraph(t *testing.T, g *graph.Graph) *httptest.Server {
	t.Helper()
	s, err := serve.New(map[string]*graph.Graph{"g": g}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs
}

// TestLoadgenEndToEnd drives the load generator against an in-process
// daemon and checks the report accounting.
func TestLoadgenEndToEnd(t *testing.T) {
	g := gen.SocialRMAT(9, 8, true, 77)
	hs := serveGraph(t, g)
	rep, err := runLoad(context.Background(), loadConfig{
		BaseURL:  hs.URL,
		Clients:  4,
		Requests: 48,
		Cache:    true,
		Coalesce: true,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 48 {
		t.Fatalf("requests = %d, want 48", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d on clean traffic (statuses %v)", rep.Errors, rep.ByStatus)
	}
	if rep.Graph != "g" {
		t.Fatalf("graph = %q", rep.Graph)
	}
	if rep.QPS <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
		t.Fatalf("implausible latency stats: %+v", rep)
	}
	var byAlgo int64
	for _, v := range rep.ByAlgo {
		byAlgo += v
	}
	if byAlgo != rep.Requests {
		t.Fatalf("by_algo sums to %d, requests %d", byAlgo, rep.Requests)
	}
	if rep.ByStatus["200"] != 48 {
		t.Fatalf("statuses %v, want all 200", rep.ByStatus)
	}
	// The mixed workload repeats sources, so the server-side snapshot
	// must show cache activity; coalescing must have batched something.
	if rep.CacheHits+rep.CacheMisses == 0 {
		t.Fatal("no cache activity visible in the report")
	}
	if rep.CoalescedBatches == 0 {
		t.Fatal("no coalesced batches visible in the report")
	}
	if rep.AdmissionPeak < 1 {
		t.Fatal("admission peak never moved")
	}
}

// TestLoadgenDropsUnanswerable: the default mix against an undirected
// graph sends no scc (a 400 by design there), says so in the report, and
// sees nothing but 200s; a mix with nothing left is an error.
func TestLoadgenDropsUnanswerable(t *testing.T) {
	g := gen.Grid2D(12, 12, false, 5)
	hs := serveGraph(t, g)
	rep, err := runLoad(context.Background(), loadConfig{
		BaseURL: hs.URL, Clients: 4, Requests: 120, Cache: true, Coalesce: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.ByStatus["200"] != rep.Requests {
		t.Fatalf("default mix on an undirected graph: %d errors, statuses %v", rep.Errors, rep.ByStatus)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0] != "scc" || rep.ByAlgo["scc"] != 0 || rep.ByAlgo["kcore"] == 0 {
		t.Fatalf("dropped %v, by_algo %v; want scc dropped and kcore kept", rep.Dropped, rep.ByAlgo)
	}
	_, err = runLoad(context.Background(), loadConfig{BaseURL: hs.URL, Mix: map[string]int{"scc": 1}})
	if err == nil || !strings.Contains(err.Error(), "empty traffic mix") || !strings.Contains(err.Error(), "scc") {
		t.Fatalf("mix emptied by the inventory accepted: %v", err)
	}
}

// TestLoadgenCoalesceOff: the A/B switch reaches the server — with
// Coalesce false, zero queries ride the coalescer.
func TestLoadgenCoalesceOff(t *testing.T) {
	g := gen.SocialRMAT(9, 8, true, 78)
	hs := serveGraph(t, g)
	rep, err := runLoad(context.Background(), loadConfig{
		BaseURL:  hs.URL,
		Clients:  4,
		Requests: 24,
		Mix:      map[string]int{"bfs": 1},
		Cache:    false,
		Coalesce: false,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d (statuses %v)", rep.Errors, rep.ByStatus)
	}
	if rep.CoalescedQueries != 0 {
		t.Fatalf("%d queries coalesced despite coalesce=off", rep.CoalescedQueries)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("%d cache hits despite cache=off", rep.CacheHits)
	}
	if rep.ByAlgo["bfs"] != rep.Requests {
		t.Fatalf("single-algo mix leaked: %v", rep.ByAlgo)
	}
}

// TestLoadgenValidation: bad configurations fail fast with clear errors.
func TestLoadgenValidation(t *testing.T) {
	g := gen.Chain(20, true)
	hs := serveGraph(t, g)

	if _, err := runLoad(context.Background(), loadConfig{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	_, err := runLoad(context.Background(), loadConfig{
		BaseURL: hs.URL, Mix: map[string]int{"pagerank": 1},
	})
	if err == nil || !strings.Contains(err.Error(), "pagerank") {
		t.Fatalf("unknown algo accepted: %v", err)
	}
	_, err = runLoad(context.Background(), loadConfig{
		BaseURL: hs.URL, Mix: map[string]int{"bfs": 0},
	})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("all-zero mix accepted: %v", err)
	}
	_, err = runLoad(context.Background(), loadConfig{
		BaseURL: hs.URL, Graph: "nope", Requests: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown graph accepted: %v", err)
	}
	if _, err := runLoad(context.Background(), loadConfig{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

// TestLoadgenDurationStop: a duration bound ends the run early without
// reporting a failure.
func TestLoadgenDurationStop(t *testing.T) {
	g := gen.Chain(50_000, true)
	hs := serveGraph(t, g)
	rep, err := runLoad(context.Background(), loadConfig{
		BaseURL:  hs.URL,
		Clients:  2,
		Requests: 1 << 20, // far more than the window allows
		Duration: 150 * time.Millisecond,
		Mix:      map[string]int{"sssp": 1},
		Cache:    false,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests >= 1<<20 {
		t.Fatal("duration bound did not stop the run")
	}
}

// TestPercentile pins the nearest-rank percentile on known distributions:
// the pth percentile of n samples is the ceil(p*n)-th smallest.
func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1.0, 10}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("percentile([1 2 3], 0.5) = %g, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %g", got)
	}
}

// TestMixPickerDeterministic: the weighted picker covers exactly the
// requested algorithms in canonical order.
func TestMixPickerDeterministic(t *testing.T) {
	p, err := newMixPicker(map[string]int{"p2p": 1, "bfs": 3}, serve.GraphInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.algos) != 2 || p.algos[0] != "bfs" || p.algos[1] != "p2p" {
		t.Fatalf("picker order %v, want canonical [bfs p2p]", p.algos)
	}
	if p.totalWt != 4 {
		t.Fatalf("total weight %d, want 4", p.totalWt)
	}
}

// TestParseMix: the -mix flag parses into weights, "" selects the default
// mix, and malformed entries are rejected.
func TestParseMix(t *testing.T) {
	mix, err := parseMix(" bfs=8, p2p=2,")
	if err != nil || len(mix) != 2 || mix["bfs"] != 8 || mix["p2p"] != 2 {
		t.Fatalf("parseMix = %v, %v", mix, err)
	}
	if mix, err := parseMix(""); mix != nil || err != nil {
		t.Fatalf("parseMix(\"\") = %v, %v; want nil, nil", mix, err)
	}
	for _, bad := range []string{"bfs", "bfs=x", "bfs=0", "bfs=-1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}
