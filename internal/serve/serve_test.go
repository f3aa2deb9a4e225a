package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// testShapes are the serving conformance graphs: one per structural
// regime the library's algorithms branch on (deep chain, power-law
// social, sparse grid, hub-and-spoke, random directed).
func testShapes() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"chain":  gen.Chain(300, true),
		"social": gen.SocialRMAT(10, 8, true, 42),
		"grid":   gen.Grid2D(20, 20, false, 7),
		"star":   gen.Star(128),
		"er":     gen.ER(400, 1600, true, 99),
	}
}

// newTestServer stands up a Server over graphs behind an httptest
// listener and tears both down with the test.
func newTestServer(t *testing.T, graphs map[string]*graph.Graph, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(graphs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// getJSON issues one GET and decodes the response body into out,
// reporting the status code and the raw body.
func getJSON(t *testing.T, url string, out any) (status int, body []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode: %v\nbody: %.200s", url, err, body)
		}
	}
	return resp.StatusCode, body
}

// wantStatus fails unless the URL answers with the expected status.
func wantStatus(t *testing.T, url string, want int) {
	t.Helper()
	status, body := getJSON(t, url, nil)
	if status != want {
		t.Fatalf("GET %s: status %d, want %d\nbody: %.200s", url, status, want, body)
	}
}

// oracleWeighted stores the weights the server computes at scan time:
// the graph itself when weighted, else the same deterministic uniform
// weights (WeightSeed defaults to 1).
func oracleWeighted(g *graph.Graph) *graph.Graph {
	if g.Weighted() {
		return g
	}
	return gen.AddUniformWeights(g, 1, 1<<8, 1)
}

// checkWeighted requires name's sssp answers from three sources, and its
// p2p answers from them to the mirrored vertex, to equal Dijkstra's on
// want value for value.
func checkWeighted(t *testing.T, base, name string, want *graph.Graph) {
	t.Helper()
	for _, src := range []uint32{0, uint32(want.N / 2), uint32(want.N - 1)} {
		wantD := seq.Dijkstra(want, src)
		var sr SSSPResponse
		u := fmt.Sprintf("%s/query/sssp?graph=%s&src=%d", base, name, src)
		if st, _ := getJSON(t, u, &sr); st != http.StatusOK || !slices.Equal(sr.Dist, wantD) {
			t.Fatalf("%s: sssp from %d: status %d, distances differ from Dijkstra's", name, src, st)
		}
		dst := uint32(want.N-1) - src
		var pr P2PResponse
		u = fmt.Sprintf("%s/query/p2p?graph=%s&src=%d&dst=%d", base, name, src, dst)
		if st, _ := getJSON(t, u, &pr); st != http.StatusOK || pr.Dist != wantD[dst] {
			t.Fatalf("%s: p2p %d->%d: status %d, dist %d, Dijkstra %d", name, src, dst, st, pr.Dist, wantD[dst])
		}
	}
}

// requireKCore requires name's kcore answer to be 200 with Matula–Beck's
// coreness on want's symmetric closure.
func requireKCore(t *testing.T, base, name string, want *graph.Graph) {
	t.Helper()
	var kr KCoreResponse
	u := fmt.Sprintf("%s/query/kcore?graph=%s", base, name)
	if st, body := getJSON(t, u, &kr); st != http.StatusOK {
		t.Fatalf("%s: kcore: status %d\nbody: %.200s", name, st, body)
	}
	wantCore, wantDeg := seq.KCore(want.Symmetrized())
	if kr.Degeneracy != wantDeg || !slices.Equal(kr.Core, wantCore) {
		t.Fatalf("%s: kcore: degeneracy %d (oracle %d), coreness differs from the oracle's: %t",
			name, kr.Degeneracy, wantDeg, !slices.Equal(kr.Core, wantCore))
	}
}

// samePartition reports whether two labelings induce the same partition.
func samePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[uint32]uint32)
	rev := make(map[uint32]uint32)
	for i := range a {
		if l, ok := fwd[a[i]]; ok && l != b[i] {
			return false
		}
		if l, ok := rev[b[i]]; ok && l != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// TestServeDifferential runs every endpoint over every conformance shape
// and checks each response against the sequential oracle.
func TestServeDifferential(t *testing.T) {
	shapes := testShapes()
	_, hs := newTestServer(t, shapes, Config{})
	for name, g := range shapes {
		g := g
		t.Run(name, func(t *testing.T) {
			srcs := []uint32{0, uint32(g.N / 2), uint32(g.N - 1)}
			wg := oracleWeighted(g)

			for _, src := range srcs {
				var br BFSResponse
				u := fmt.Sprintf("%s/query/bfs?graph=%s&src=%d", hs.URL, name, src)
				if st, _ := getJSON(t, u, &br); st != http.StatusOK {
					t.Fatalf("bfs src %d: status %d", src, st)
				}
				want := seq.BFS(g, src)
				for v := range want {
					if br.Dist[v] != want[v] {
						t.Fatalf("bfs src %d: dist[%d] = %d, oracle %d", src, v, br.Dist[v], want[v])
					}
				}

				var sr SSSPResponse
				u = fmt.Sprintf("%s/query/sssp?graph=%s&src=%d", hs.URL, name, src)
				if st, _ := getJSON(t, u, &sr); st != http.StatusOK {
					t.Fatalf("sssp src %d: status %d", src, st)
				}
				wantD := seq.Dijkstra(wg, src)
				for v := range wantD {
					if sr.Dist[v] != wantD[v] {
						t.Fatalf("sssp src %d: dist[%d] = %d, oracle %d", src, v, sr.Dist[v], wantD[v])
					}
				}

				var rr ReachableResponse
				u = fmt.Sprintf("%s/query/reachable?graph=%s&src=%d", hs.URL, name, src)
				if st, _ := getJSON(t, u, &rr); st != http.StatusOK {
					t.Fatalf("reachable src %d: status %d", src, st)
				}
				for v := range want {
					if rr.Reachable[v] != (want[v] != graph.InfDist) {
						t.Fatalf("reachable src %d: vertex %d = %t, oracle %t",
							src, v, rr.Reachable[v], want[v] != graph.InfDist)
					}
				}

				dst := uint32(g.N-1) - src%uint32(g.N)
				var pr P2PResponse
				u = fmt.Sprintf("%s/query/p2p?graph=%s&src=%d&dst=%d", hs.URL, name, src, dst)
				if st, _ := getJSON(t, u, &pr); st != http.StatusOK {
					t.Fatalf("p2p %d->%d: status %d", src, dst, st)
				}
				if pr.Dist != wantD[dst] {
					t.Fatalf("p2p %d->%d: dist %d, oracle %d", src, dst, pr.Dist, wantD[dst])
				}
				if pr.Reachable != (wantD[dst] != core.InfWeight) {
					t.Fatalf("p2p %d->%d: reachable %t disagrees with dist %d", src, dst, pr.Reachable, pr.Dist)
				}
			}

			u := fmt.Sprintf("%s/query/scc?graph=%s", hs.URL, name)
			if !g.Directed {
				// SCC is defined on directed graphs only; the daemon
				// must refuse rather than panic the connection.
				wantStatus(t, u, http.StatusBadRequest)
			} else {
				var cr SCCResponse
				if st, _ := getJSON(t, u, &cr); st != http.StatusOK {
					t.Fatalf("scc: status %d", st)
				}
				wantLabels, wantCount := seq.TarjanSCC(g)
				if cr.Components != wantCount {
					t.Fatalf("scc: %d components, oracle %d", cr.Components, wantCount)
				}
				if !samePartition(cr.Labels, wantLabels) {
					t.Fatal("scc: labels do not partition like the oracle")
				}
			}

			requireKCore(t, hs.URL, name, g)
		})
	}
}

// TestServeMultiSourceReachable checks the comma-separated source form
// against a per-source oracle union.
func TestServeMultiSourceReachable(t *testing.T) {
	g := gen.ER(300, 900, true, 5)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	srcs := []uint32{3, 77, 250}
	want := make([]bool, g.N)
	for _, s := range srcs {
		for v, d := range seq.BFS(g, s) {
			if d != graph.InfDist {
				want[v] = true
			}
		}
	}
	var rr ReachableResponse
	u := fmt.Sprintf("%s/query/reachable?graph=g&src=3,77,250", hs.URL)
	if st, _ := getJSON(t, u, &rr); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	for v := range want {
		if rr.Reachable[v] != want[v] {
			t.Fatalf("vertex %d: %t, oracle %t", v, rr.Reachable[v], want[v])
		}
	}
}

// TestServeCoalesceOffMatchesOn: ?coalesce=off must answer identically to
// the coalesced path — same oracle distances either way.
func TestServeCoalesceOffMatchesOn(t *testing.T) {
	g := gen.SocialRMAT(10, 8, true, 17)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	for _, src := range []uint32{0, 9, 300} {
		var on, off BFSResponse
		getJSON(t, fmt.Sprintf("%s/query/bfs?graph=g&src=%d&cache=off", hs.URL, src), &on)
		getJSON(t, fmt.Sprintf("%s/query/bfs?graph=g&src=%d&cache=off&coalesce=off", hs.URL, src), &off)
		want := seq.BFS(g, src)
		for v := range want {
			if on.Dist[v] != want[v] || off.Dist[v] != want[v] {
				t.Fatalf("src %d vertex %d: coalesced %d, direct %d, oracle %d",
					src, v, on.Dist[v], off.Dist[v], want[v])
			}
		}
	}
}

// TestServeSummaryMode: ?summary=1 ships the aggregates without the
// per-vertex array, agrees with the full response, and keys the cache
// separately from it.
func TestServeSummaryMode(t *testing.T) {
	g := gen.ER(300, 1200, true, 13)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	var full, sum BFSResponse
	getJSON(t, hs.URL+"/query/bfs?graph=g&src=4", &full)
	status, body := getJSON(t, hs.URL+"/query/bfs?graph=g&src=4&summary=1", &sum)
	if status != http.StatusOK {
		t.Fatalf("summary query: status %d", status)
	}
	if len(sum.Dist) != 0 {
		t.Fatalf("summary response carries %d dist entries", len(sum.Dist))
	}
	if sum.Reached != full.Reached || sum.Ecc != full.Ecc {
		t.Fatalf("summary %+v disagrees with full response (reached %d, ecc %d)",
			sum, full.Reached, full.Ecc)
	}
	if len(body) > 200 {
		t.Fatalf("summary body is %d bytes; the array leaked into it", len(body))
	}
	// The second summary query must hit its own cache entry, not the
	// full response's.
	resp, err := http.Get(hs.URL + "/query/bfs?graph=g&src=4&summary=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m := resp.Header.Get("X-Pasgal-Cache"); m != "hit" {
		t.Fatalf("repeat summary query: cache marker %q, want hit", m)
	}
}

// TestServeErrorPaths covers the client-error surface: bad methods,
// unknown graphs, missing/garbage/out-of-range vertices, bad overrides.
func TestServeErrorPaths(t *testing.T) {
	g := gen.Chain(50, true)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})

	wantStatus(t, hs.URL+"/query/bfs?graph=nope&src=0", http.StatusNotFound)
	wantStatus(t, hs.URL+"/query/bfs?graph=g", http.StatusBadRequest)
	wantStatus(t, hs.URL+"/query/bfs?graph=g&src=banana", http.StatusBadRequest)
	wantStatus(t, hs.URL+"/query/bfs?graph=g&src=50", http.StatusBadRequest)
	wantStatus(t, hs.URL+"/query/p2p?graph=g&src=0", http.StatusBadRequest)
	wantStatus(t, hs.URL+"/query/reachable?graph=g&src=1,banana", http.StatusBadRequest)
	wantStatus(t, hs.URL+"/query/bfs?graph=g&src=0&timeout=banana", http.StatusBadRequest)
	wantStatus(t, hs.URL+"/query/bfs?graph=g&src=0&timeout=-1s", http.StatusBadRequest)

	resp, err := http.Post(hs.URL+"/query/bfs?graph=g&src=0", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}

	var er ErrorResponse
	status, body := getJSON(t, hs.URL+"/query/bfs?graph=nope&src=0", nil)
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not ErrorResponse JSON: %v", err)
	}
	if er.Status != status || er.Error == "" {
		t.Fatalf("error body %+v does not echo status %d", er, status)
	}
}

// TestServeGraphsAndHealth covers the inventory and liveness endpoints.
func TestServeGraphsAndHealth(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"a": gen.Chain(10, true),
		"b": gen.Star(5),
	}
	_, hs := newTestServer(t, shapes, Config{})

	var gr GraphsResponse
	if st, _ := getJSON(t, hs.URL+"/graphs", &gr); st != http.StatusOK {
		t.Fatalf("/graphs status %d", st)
	}
	if len(gr.Graphs) != 2 || gr.Graphs["a"].N != 10 || gr.Graphs["b"].Directed {
		t.Fatalf("bad inventory: %+v", gr.Graphs)
	}

	var hr HealthResponse
	if st, _ := getJSON(t, hs.URL+"/healthz", &hr); st != http.StatusOK {
		t.Fatalf("/healthz status %d", st)
	}
	if hr.Status != "ok" || hr.Graphs != 2 {
		t.Fatalf("bad health: %+v", hr)
	}
}

// TestServeDrain: after Close, queries and health answer 503 and the
// response says draining; Close is idempotent.
func TestServeDrain(t *testing.T) {
	g := gen.Chain(50, true)
	s, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	wantStatus(t, hs.URL+"/query/bfs?graph=g&src=0", http.StatusOK)
	s.Close()
	s.Close() // idempotent
	wantStatus(t, hs.URL+"/query/bfs?graph=g&src=0", http.StatusServiceUnavailable)
	var hr HealthResponse
	status, body := getJSON(t, hs.URL+"/healthz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: status %d", status)
	}
	if err := json.Unmarshal(body, &hr); err != nil || hr.Status != "draining" {
		t.Fatalf("bad draining health body %q (err %v)", body, err)
	}
	var mr MetricsResponse
	if st, _ := getJSON(t, hs.URL+"/metrics", &mr); st != http.StatusOK || !mr.Draining {
		t.Fatalf("/metrics while draining: status %d, draining %t", st, mr.Draining)
	}
}

// TestServeNewValidation: New rejects empty maps, nil graphs, empty
// names, and invalid graphs.
func TestServeNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New(nil) succeeded")
	}
	if _, err := New(map[string]*graph.Graph{"g": nil}, Config{}); err == nil {
		t.Fatal("New with a nil graph succeeded")
	}
	if _, err := New(map[string]*graph.Graph{"": gen.Chain(4, true)}, Config{}); err == nil {
		t.Fatal("New with an empty name succeeded")
	}
	bad := &graph.Graph{N: 2, Offsets: []uint64{0, 1}} // truncated offsets
	if _, err := New(map[string]*graph.Graph{"g": bad}, Config{}); err == nil {
		t.Fatal("New with an invalid graph succeeded")
	}
}

// TestServeMetricsAccounting: the per-algo counters and totals track the
// traffic exactly on a quiet server.
func TestServeMetricsAccounting(t *testing.T) {
	g := gen.Chain(60, true)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	for i := 0; i < 3; i++ {
		wantStatus(t, fmt.Sprintf("%s/query/bfs?graph=g&src=%d", hs.URL, i), http.StatusOK)
	}
	wantStatus(t, hs.URL+"/query/scc?graph=g", http.StatusOK)
	wantStatus(t, hs.URL+"/query/bfs?graph=nope&src=0", http.StatusNotFound) // not counted: no graph

	var mr MetricsResponse
	if st, _ := getJSON(t, hs.URL+"/metrics", &mr); st != http.StatusOK {
		t.Fatalf("/metrics status %d", st)
	}
	if mr.Queries.Total != 4 || mr.Queries.ByAlgo["bfs"] != 3 || mr.Queries.ByAlgo["scc"] != 1 {
		t.Fatalf("bad accounting: %+v", mr.Queries)
	}
	if mr.Queries.Failures != 0 {
		t.Fatalf("failures = %d on clean traffic", mr.Queries.Failures)
	}
	if mr.Admission.Capacity < 1 || mr.Admission.Peak > int64(mr.Admission.Capacity) {
		t.Fatalf("admission peak %d exceeds capacity %d", mr.Admission.Peak, mr.Admission.Capacity)
	}
	if mr.Tracer["rounds"] == 0 {
		t.Fatal("tracer rounds counter never moved")
	}
}

// TestServeCompressedGraph serves the same graph twice — plain CSR and
// compressed — through NewAdj and checks that every compressed-capable
// endpoint (scc and kcore included) answers byte-equivalently on both,
// that sssp and p2p on the compressed one match Dijkstra on the
// stored-weight oracle and kcore Matula–Beck on the symmetrized graph,
// and that /graphs marks the representation.
func TestServeCompressedGraph(t *testing.T) {
	g := gen.SocialRMAT(10, 8, true, 42)
	s, err := NewAdj(map[string]graph.Adjacency{
		"plain": g,
		"zc":    graph.Compress(g),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})

	// sameOnBoth asks both names and requires 200s whose bodies differ
	// only in the graph name.
	sameOnBoth := func(ep string) {
		t.Helper()
		stP, bodyP := getJSON(t, hs.URL+fmt.Sprintf(ep, "plain"), nil)
		stZ, bodyZ := getJSON(t, hs.URL+fmt.Sprintf(ep, "zc"), nil)
		if stP != http.StatusOK || stZ != http.StatusOK {
			t.Fatalf("%s: plain %d, compressed %d", ep, stP, stZ)
		}
		norm := func(b []byte, name string) string {
			return strings.Replace(string(b), `"graph":"`+name+`"`, `"graph":"G"`, 1)
		}
		if norm(bodyP, "plain") != norm(bodyZ, "zc") {
			t.Fatalf("%s: plain and compressed answers differ\nplain: %.200s\nzc:    %.200s",
				ep, bodyP, bodyZ)
		}
	}
	// Coalescing makes bfs/reachable answers identical by construction on
	// one graph but the two names have separate coalescers, so this also
	// exercises the compressed MS-BFS path end to end.
	for _, src := range []uint32{0, uint32(g.N / 2), uint32(g.N - 1)} {
		for _, ep := range []string{
			fmt.Sprintf("/query/bfs?graph=%%s&src=%d", src),
			fmt.Sprintf("/query/bfs?graph=%%s&src=%d&coalesce=off", src),
			fmt.Sprintf("/query/sssp?graph=%%s&src=%d", src),
			fmt.Sprintf("/query/reachable?graph=%%s&src=%d", src),
			fmt.Sprintf("/query/p2p?graph=%%s&src=%d&dst=%d", src, uint32(g.N-1)-src),
		} {
			sameOnBoth(ep)
		}
	}
	// SCC labels and coreness are functions of (arc set, options), not of
	// the representation the kernels scan.
	sameOnBoth("/query/scc?graph=%s")
	sameOnBoth("/query/kcore?graph=%s")
	checkWeighted(t, hs.URL, "zc", oracleWeighted(g))
	requireKCore(t, hs.URL, "zc", g)

	var gr GraphsResponse
	if st, _ := getJSON(t, hs.URL+"/graphs", &gr); st != http.StatusOK {
		t.Fatalf("/graphs status %d", st)
	}
	if gr.Graphs["plain"].Compressed || !gr.Graphs["zc"].Compressed {
		t.Fatalf("representation flags wrong: %+v", gr.Graphs)
	}
	if gr.Graphs["zc"].N != g.N || gr.Graphs["zc"].M != g.M() {
		t.Fatalf("compressed inventory wrong: %+v", gr.Graphs["zc"])
	}
}

// TestServeServerTiming: every computed answer carries a Server-Timing
// header whose wait and compute fit inside the client-measured latency,
// cache hits carry none, and /metrics stages count exactly the computed
// answers per algo.
func TestServeServerTiming(t *testing.T) {
	g := gen.SocialRMAT(10, 8, true, 42)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	get := func(path string) (timing, cache string, latency time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		latency = time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp.Header.Get("Server-Timing"), resp.Header.Get("X-Pasgal-Cache"), latency
	}
	for _, path := range []string{
		"/query/sssp?graph=g&src=1",
		"/query/sssp?graph=g&src=2",
		"/query/bfs?graph=g&src=1",
		"/query/bfs?graph=g&src=2&coalesce=off",
		"/query/reachable?graph=g&src=3",
	} {
		timing, _, latency := get(path)
		var wait, compute float64
		if n, err := fmt.Sscanf(timing, "wait;dur=%g, compute;dur=%g", &wait, &compute); n != 2 || err != nil {
			t.Fatalf("%s: Server-Timing %q does not hold wait and compute (%v)", path, timing, err)
		}
		if wait < 0 || compute <= 0 {
			t.Fatalf("%s: Server-Timing %q", path, timing)
		}
		if ms := float64(latency) / 1e6; wait+compute > ms {
			t.Fatalf("%s: wait %g + compute %g ms exceed the client's %g ms", path, wait, compute, ms)
		}
	}
	if timing, cache, _ := get("/query/sssp?graph=g&src=1"); cache != "hit" || timing != "" {
		t.Fatalf("repeated sssp: cache %q, Server-Timing %q; want a hit with no timing", cache, timing)
	}
	var mr MetricsResponse
	if st, _ := getJSON(t, hs.URL+"/metrics", &mr); st != http.StatusOK {
		t.Fatalf("/metrics status %d", st)
	}
	want := map[string]int64{"sssp": 2, "bfs": 2, "reachable": 1}
	for _, algo := range Algos {
		st := mr.Stages[algo]
		if st.Count != want[algo] {
			t.Fatalf("stages[%s].count = %d, want %d (stages %+v)", algo, st.Count, want[algo], mr.Stages)
		}
		if st.Count > 0 && st.ComputeMs <= 0 {
			t.Fatalf("stages[%s] = %+v: no compute time", algo, st)
		}
	}
}
