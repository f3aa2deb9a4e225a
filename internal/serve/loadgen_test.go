package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// TestLoadgenEndToEnd drives the load generator against an in-process
// daemon and checks the report accounting.
func TestLoadgenEndToEnd(t *testing.T) {
	g := gen.SocialRMAT(9, 8, true, 77)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	rep, err := RunLoad(context.Background(), LoadConfig{
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
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	rep, err := RunLoad(context.Background(), LoadConfig{
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
	_, err = RunLoad(context.Background(), LoadConfig{BaseURL: hs.URL, Mix: map[string]int{"scc": 1}})
	if err == nil || !strings.Contains(err.Error(), "empty traffic mix") || !strings.Contains(err.Error(), "scc") {
		t.Fatalf("mix emptied by the inventory accepted: %v", err)
	}
}

// TestLoadgenCoalesceOff: the A/B switch reaches the server — with
// Coalesce false, zero queries ride the coalescer.
func TestLoadgenCoalesceOff(t *testing.T) {
	g := gen.SocialRMAT(9, 8, true, 78)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	rep, err := RunLoad(context.Background(), LoadConfig{
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
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})

	if _, err := RunLoad(context.Background(), LoadConfig{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	_, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: hs.URL, Mix: map[string]int{"pagerank": 1},
	})
	if err == nil || !strings.Contains(err.Error(), "pagerank") {
		t.Fatalf("unknown algo accepted: %v", err)
	}
	_, err = RunLoad(context.Background(), LoadConfig{
		BaseURL: hs.URL, Mix: map[string]int{"bfs": 0},
	})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("all-zero mix accepted: %v", err)
	}
	_, err = RunLoad(context.Background(), LoadConfig{
		BaseURL: hs.URL, Graph: "nope", Requests: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown graph accepted: %v", err)
	}
	if _, err := RunLoad(context.Background(), LoadConfig{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

// TestLoadgenDurationStop: a duration bound ends the run early without
// reporting a failure.
func TestLoadgenDurationStop(t *testing.T) {
	g := gen.Chain(50_000, true)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	rep, err := RunLoad(context.Background(), LoadConfig{
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

// TestPercentile pins the percentile picker on a known distribution.
func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 9}, {1.0, 10}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
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
	p, err := newMixPicker(map[string]int{"p2p": 1, "bfs": 3}, GraphInfo{})
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
