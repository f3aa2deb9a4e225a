package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/gio"
	"pasgal/internal/graph"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.golden from the running daemon")

// wireScript is the request script the golden wire test sends to every
// served form: g is a directed graph of 48 vertices, u an undirected one.
// It covers every algo with and without summary=1, cache-hit replays,
// cache=off and coalesce=off, the multi-source reachable list, and every
// client error a query can meet: missing, malformed and out-of-range
// vertices, a bad timeout, scc on an undirected graph, a POST to a query
// and an unknown graph.
var wireScript = []string{
	"/query/bfs?graph=g&src=3",
	"/query/bfs?graph=g&src=3",
	"/query/bfs?graph=g&src=3&summary=1",
	"/query/bfs?graph=g&src=5&coalesce=off",
	"/query/bfs?graph=g&src=5&coalesce=off&summary=true",
	"/query/bfs?graph=g&src=7&cache=off",
	"/query/bfs?graph=u&src=0",
	"/query/sssp?graph=g&src=3",
	"/query/sssp?graph=g&src=3&summary=1",
	"/query/sssp?graph=g&src=3&summary=1",
	"/query/sssp?graph=u&src=9",
	"/query/scc?graph=g",
	"/query/scc?graph=g&summary=1",
	"/query/scc?graph=g",
	"/query/kcore?graph=g",
	"/query/kcore?graph=g&summary=1",
	"/query/kcore?graph=u",
	"/query/kcore?graph=u",
	"/query/reachable?graph=g&src=3",
	"/query/reachable?graph=g&src=3&summary=1",
	"/query/reachable?graph=g&src=5&coalesce=off",
	"/query/reachable?graph=g&src=3,7,11",
	"/query/reachable?graph=g&src=11,%207,3&summary=1",
	"/query/reachable?graph=g&src=3,7,11",
	"/query/reachable?graph=u&src=2",
	"/query/p2p?graph=g&src=3&dst=17",
	"/query/p2p?graph=g&src=3&dst=17",
	"/query/p2p?graph=g&src=3&dst=17&summary=1",
	"/query/p2p?graph=u&src=0&dst=47&cache=off",
	"/query/bfs?graph=g",
	"/query/bfs?graph=g&src=",
	"/query/bfs?graph=g&src=banana",
	"/query/bfs?graph=g&src=-1",
	"/query/bfs?graph=g&src=%205",
	"/query/bfs?graph=g&src=48",
	"/query/bfs?graph=g&src=4294967296",
	"/query/sssp?graph=g&src=99",
	"/query/p2p?graph=g&src=3",
	"/query/p2p?graph=g&src=3&dst=x",
	"/query/p2p?graph=g&src=48&dst=x",
	"/query/p2p?graph=g&src=3&dst=48",
	"/query/reachable?graph=g",
	"/query/reachable?graph=g&src=1,banana",
	"/query/reachable?graph=g&src=1,,2",
	"/query/reachable?graph=g&src=1,48",
	"/query/bfs?graph=g&src=0&timeout=banana",
	"/query/bfs?graph=g&src=0&timeout=-1s",
	"/query/scc?graph=g&timeout=0s",
	"/query/scc?graph=u",
	"/query/scc?graph=u&summary=1",
	"POST /query/bfs?graph=g&src=0",
	"POST /query/scc?graph=g",
	"/query/bfs?graph=nope&src=0",
	"/query/kcore?graph=nope",
	"/query/bfs?graph=g&src=3",
	"/query/scc?graph=g&summary=1",
}

// serverTiming is the shape of every computed answer's Server-Timing.
var serverTiming = regexp.MustCompile(`^wait;dur=[0-9]+\.[0-9]{3}, compute;dur=[0-9]+\.[0-9]{3}$`)

// TestWireGolden pins the daemon's wire behaviour on the same two graphs
// served three ways: plain CSR, .pz files mapped from disk, and mutable
// after one /update. For every scripted request it records the status,
// the exact body bytes, X-Pasgal-Cache, Content-Type and whether a
// Server-Timing header came (whose shape it checks); after the script, the
// /metrics query, cache and admission counters. The whole transcript must
// equal testdata/wire.golden; go test -run TestWireGolden -update
// rewrites it.
func TestWireGolden(t *testing.T) {
	g := gen.ER(48, 150, true, 5)
	u := gen.ER(48, 100, false, 6)
	dir := t.TempDir()
	mapped := map[string]graph.Adjacency{}
	for name, gr := range map[string]*graph.Graph{"g": g, "u": u} {
		path := filepath.Join(dir, name+".pz")
		if err := gio.WritePZFile(path, graph.Compress(gr)); err != nil {
			t.Fatal(err)
		}
		c, unmap, err := gio.MapPZFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { unmap() })
		mapped[name] = c
	}

	var out strings.Builder
	for _, form := range []struct {
		name   string
		graphs map[string]graph.Adjacency
		cfg    Config
	}{
		{"plain", map[string]graph.Adjacency{"g": g, "u": u}, Config{}},
		{"pz", mapped, Config{}},
		{"mutable", map[string]graph.Adjacency{"g": g, "u": u}, Config{Mutable: true}},
	} {
		s, err := NewAdj(form.graphs, form.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := newWireServer(t, s)
		fmt.Fprintf(&out, "== %s\n", form.name)
		if form.cfg.Mutable {
			req := UpdateRequest{
				Inserts: []UpdateEdge{{U: 0, V: 47}, {U: 17, V: 3}},
				Deletes: []UpdateEdge{{U: 3, V: g.Neighbors(3)[0]}},
			}
			body, _ := json.Marshal(req)
			wireExchange(t, &out, hs, "POST", "/update?graph=g", string(body))
		}
		for _, line := range wireScript {
			method, path := "GET", line
			if m, p, ok := strings.Cut(line, " "); ok {
				method, path = m, p
			}
			wireExchange(t, &out, hs, method, path, "")
		}
		var mr MetricsResponse
		if st, body := getJSON(t, hs+"/metrics", &mr); st != http.StatusOK {
			t.Fatalf("%s: /metrics status %d: %s", form.name, st, body)
		}
		pinned, _ := json.Marshal(struct {
			Queries  QueryStats `json:"queries"`
			Cache    CacheStats `json:"cache"`
			Admitted int64      `json:"admission.admitted"`
		}{mr.Queries, mr.Cache, mr.Admission.Admitted})
		fmt.Fprintf(&out, "metrics %s\n\n", pinned)
	}

	golden := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (go test -run TestWireGolden -update records it)", err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var got, exp string
		if i < len(gotLines) {
			got = gotLines[i]
		}
		if i < len(wantLines) {
			exp = wantLines[i]
		}
		if got != exp {
			t.Fatalf("wire transcript differs from %s at line %d\ngot:  %.300s\nwant: %.300s",
				golden, i+1, got, exp)
		}
	}
}

// newWireServer mounts s on a test listener and returns its base URL.
func newWireServer(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs.URL
}

// wireExchange sends one request and appends its transcript entry: the
// request line, then status, cache marker, content type, "timing" or "-"
// for Server-Timing, and the body length, then the body bytes verbatim.
func wireExchange(t *testing.T, out *strings.Builder, base, method, path, body string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	timing := "-"
	if st := resp.Header.Get("Server-Timing"); st != "" {
		if !serverTiming.MatchString(st) {
			t.Fatalf("%s %s: Server-Timing %q is not wait;dur=…, compute;dur=…", method, path, st)
		}
		timing = "timing"
	}
	cache := resp.Header.Get("X-Pasgal-Cache")
	if cache == "" {
		cache = "-"
	}
	fmt.Fprintf(out, "%s %s\n%d %s %s %s len=%d\n%s\n", method, path, resp.StatusCode,
		cache, resp.Header.Get("Content-Type"), timing, len(raw), raw)
}
