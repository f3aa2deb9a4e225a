package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

// postUpdate issues one POST /update and decodes the response.
func postUpdate(t *testing.T, base, name string, req UpdateRequest) (int, UpdateResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/update?graph="+name, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out UpdateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestUpdateInvalidatesCache is the satellite-1 regression test: before
// the identity/epoch key component, the result cache replayed a body
// computed from the pre-mutation graph because the key was the graph's
// NAME, which the mutation does not change. The sequence is exactly the
// bug report: query (fills cache), mutate, re-query (must recompute).
func TestUpdateInvalidatesCache(t *testing.T) {
	graphs := map[string]*graph.Graph{"chain": gen.Chain(64, false)}
	_, hs := newTestServer(t, graphs, Config{Mutable: true, CompactFraction: -1})

	var before BFSResponse
	if st, _ := getJSON(t, hs.URL+"/query/bfs?graph=chain&src=0", &before); st != http.StatusOK {
		t.Fatalf("seed query failed: %d", st)
	}
	// Same query again: a cache hit (same epoch, nothing changed).
	resp, err := http.Get(hs.URL + "/query/bfs?graph=chain&src=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Pasgal-Cache"); got != "hit" {
		t.Fatalf("pre-mutation re-query: cache %q, want hit", got)
	}

	// Shortcut the chain: 0-63 collapses all distances.
	st, ur := postUpdate(t, hs.URL, "chain", UpdateRequest{Inserts: []UpdateEdge{{U: 0, V: 63}}})
	if st != http.StatusOK || ur.Applied == 0 || ur.Epoch == 0 {
		t.Fatalf("update failed: status %d resp %+v", st, ur)
	}

	resp, err = http.Get(hs.URL + "/query/bfs?graph=chain&src=0")
	if err != nil {
		t.Fatal(err)
	}
	var after BFSResponse
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Pasgal-Cache"); got != "miss" {
		t.Fatalf("post-mutation query replayed from cache (%q): the stale-key bug", got)
	}
	if after.Ecc >= before.Ecc {
		t.Fatalf("mutation not visible: ecc %d -> %d", before.Ecc, after.Ecc)
	}
	if after.Dist[63] != 1 {
		t.Fatalf("inserted edge missing: dist[63] = %d", after.Dist[63])
	}

	// Deleting the shortcut publishes another epoch; the answer reverts
	// but must NOT replay the pre-mutation body either (different epoch,
	// different key) — it recomputes and re-caches.
	if st, _ := postUpdate(t, hs.URL, "chain", UpdateRequest{Deletes: []UpdateEdge{{U: 0, V: 63}}}); st != http.StatusOK {
		t.Fatalf("delete failed: %d", st)
	}
	resp, err = http.Get(hs.URL + "/query/bfs?graph=chain&src=0")
	if err != nil {
		t.Fatal(err)
	}
	var reverted BFSResponse
	if err := json.NewDecoder(resp.Body).Decode(&reverted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Pasgal-Cache") != "miss" {
		t.Fatal("post-delete query must recompute under its new epoch key")
	}
	if !reflect.DeepEqual(reverted.Dist, before.Dist) {
		t.Fatal("delete did not restore the original answers")
	}
}

// TestUpdateEndpointContract covers the /update surface: method and
// body validation, immutable and unknown graphs, no-op batches, weighted
// queries across epochs, and the metrics/graphs reporting.
func TestUpdateEndpointContract(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid2D(8, 8, false, 3),
		"ring": gen.Cycle(64, true),
	}
	s, hs := newTestServer(t, graphs, Config{Mutable: true, CompactFraction: -1})

	// GET /update is a method error.
	wantStatus(t, hs.URL+"/update?graph=grid", http.StatusMethodNotAllowed)
	// Unknown graph.
	if st, _ := postUpdate(t, hs.URL, "nope", UpdateRequest{}); st != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", st)
	}
	// Bad body.
	resp, err := http.Post(hs.URL+"/update?graph=grid", "application/json",
		bytes.NewReader([]byte(`{"bogus": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	// Out-of-range endpoint.
	if st, _ := postUpdate(t, hs.URL, "grid", UpdateRequest{Inserts: []UpdateEdge{{U: 0, V: 9999}}}); st != http.StatusBadRequest {
		t.Fatalf("out-of-range: %d", st)
	}
	// No-op batch: epoch stays 0.
	st, ur := postUpdate(t, hs.URL, "grid", UpdateRequest{Deletes: []UpdateEdge{{U: 0, V: 63}}})
	if st != http.StatusOK || ur.Epoch != 0 || ur.Applied != 0 {
		t.Fatalf("no-op batch: status %d resp %+v", st, ur)
	}

	// kcore refuses mutable graphs; scc refuses grid only for being
	// undirected.
	wantStatus(t, hs.URL+"/query/kcore?graph=grid", http.StatusBadRequest)
	if st, body := getJSON(t, hs.URL+"/query/scc?graph=grid", nil); st != http.StatusBadRequest ||
		!bytes.Contains(body, []byte("is undirected")) {
		t.Fatalf("scc on undirected mutable graph: status %d, body %.200s", st, body)
	}
	// On a directed mutable graph scc serves the pinned epoch: one ring,
	// then — an arc cut, a chord and a back arc added — whatever Tarjan
	// finds on that epoch's arc set.
	var scc SCCResponse
	if st, _ := getJSON(t, hs.URL+"/query/scc?graph=ring", &scc); st != http.StatusOK || scc.Components != 1 {
		t.Fatalf("scc on the ring: status %d, %d components", st, scc.Components)
	}
	if st, _ := postUpdate(t, hs.URL, "ring", UpdateRequest{
		Deletes: []UpdateEdge{{U: 10, V: 11}},
		Inserts: []UpdateEdge{{U: 40, V: 20}, {U: 5, V: 0}},
	}); st != http.StatusOK {
		t.Fatalf("ring update: %d", st)
	}
	sn := s.graphs["ring"].store.Snapshot()
	wantL, wantN := seq.TarjanSCC(sn.Adj().(*graph.Overlay).Materialize())
	sn.Release()
	if st, _ := getJSON(t, hs.URL+"/query/scc?graph=ring", &scc); st != http.StatusOK {
		t.Fatalf("scc after update: %d", st)
	}
	if scc.Components != wantN || wantN == 1 || !samePartition(scc.Labels, wantL) {
		t.Fatalf("scc after update: %d components, Tarjan on the epoch %d", scc.Components, wantN)
	}
	// sssp/p2p on that epoch: the overlay's arcs, added ones included,
	// weigh what AddUniformWeights stores for its materialized arc set.
	checkWeighted(t, hs.URL, "ring", epochWeighted(s, "ring"))

	// sssp works across epochs: surviving edges keep their generated
	// weights, so distances only change where the structure did.
	var ssspBefore SSSPResponse
	if st, _ := getJSON(t, hs.URL+"/query/sssp?graph=grid&src=0", &ssspBefore); st != http.StatusOK {
		t.Fatalf("sssp: %d", st)
	}
	// A weight on an insert into an unweighted graph is refused, and
	// nothing in its batch applies: weights there come from the seed.
	epoch := func() uint64 {
		sn := s.graphs["grid"].store.Snapshot()
		defer sn.Release()
		return sn.Epoch()
	}
	e0 := epoch()
	if st, _ := postUpdate(t, hs.URL, "grid", UpdateRequest{
		Deletes: []UpdateEdge{{U: 0, V: 1}},
		Inserts: []UpdateEdge{{U: 0, V: 63, W: 1}},
	}); st != http.StatusBadRequest {
		t.Fatalf("insert with w on an unweighted graph: %d, want 400", st)
	}
	if e := epoch(); e != e0 {
		t.Fatalf("refused batch published epoch %d over %d", e, e0)
	}
	if st, _ := postUpdate(t, hs.URL, "grid", UpdateRequest{Inserts: []UpdateEdge{{U: 0, V: 63}}}); st != http.StatusOK {
		t.Fatalf("shortcut insert: %d", st)
	}
	var ssspAfter SSSPResponse
	if st, _ := getJSON(t, hs.URL+"/query/sssp?graph=grid&src=0", &ssspAfter); st != http.StatusOK {
		t.Fatalf("sssp after: %d", st)
	}
	if ssspAfter.Dist[63] >= ssspBefore.Dist[63] {
		t.Fatalf("weighted shortcut not applied: %d -> %d", ssspBefore.Dist[63], ssspAfter.Dist[63])
	}
	if ssspAfter.Dist[1] != ssspBefore.Dist[1] {
		t.Fatalf("surviving edge weight moved across epochs: %d -> %d",
			ssspBefore.Dist[1], ssspAfter.Dist[1])
	}
	checkWeighted(t, hs.URL, "grid", epochWeighted(s, "grid"))

	// Metrics and inventory reflect the mutation.
	var met MetricsResponse
	if st, _ := getJSON(t, hs.URL+"/metrics", &met); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	us, ok := met.Updates["grid"]
	if !ok {
		t.Fatal("metrics missing updates section for mutable graph")
	}
	if us.Batches != 2 || us.Epoch == 0 || us.AppliedArcs == 0 {
		t.Fatalf("update stats wrong: %+v", us)
	}
	gi := met.Graphs["grid"]
	if !gi.Mutable || gi.Epoch != us.Epoch {
		t.Fatalf("graph info wrong: %+v", gi)
	}
}

// epochWeighted is the stored-weight oracle of name's current epoch.
func epochWeighted(s *Server, name string) *graph.Graph {
	sn := s.graphs[name].store.Snapshot()
	defer sn.Release()
	return gen.AddUniformWeights(sn.Adj().(*graph.Overlay).Materialize(), 1, 1<<8, 1)
}

// TestUpdateRejectedOnImmutableServer: without Config.Mutable the
// endpoint exists but refuses every graph.
func TestUpdateRejectedOnImmutableServer(t *testing.T) {
	graphs := map[string]*graph.Graph{"chain": gen.Chain(16, false)}
	_, hs := newTestServer(t, graphs, Config{})
	if st, _ := postUpdate(t, hs.URL, "chain", UpdateRequest{Inserts: []UpdateEdge{{U: 0, V: 5}}}); st != http.StatusBadRequest {
		t.Fatalf("immutable update: %d", st)
	}
}

// TestMutableRejectsCompressed: mutable serving requires plain CSR.
func TestMutableRejectsCompressed(t *testing.T) {
	c := graph.Compress(gen.Chain(32, false))
	if _, err := NewAdj(map[string]graph.Adjacency{"c": c}, Config{Mutable: true}); err == nil {
		t.Fatal("compressed graph must be rejected under Mutable")
	}
}

// TestStressHTTPSnapshotIsolation hammers a mutable server with
// concurrent updaters and queriers (run under -race by check.sh). Every
// BFS answer must be computed from ONE pinned epoch, never from a view
// that mutated mid-traversal. The base is a wheel — a cycle plus a
// spoke from 0 to every rim vertex — and updaters only churn rim edges,
// so every epoch's graph is connected with eccentricity 2 from vertex 1
// no matter how many rim edges happen to be missing: any torn or stale
// view shows up as reached < n or an impossible distance.
func TestStressHTTPSnapshotIsolation(t *testing.T) {
	const n = 64
	var edges []graph.Edge
	for v := uint32(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v}) // spoke
		if v < n-1 {
			edges = append(edges, graph.Edge{U: v, V: v + 1}) // rim
		}
	}
	wheel := graph.FromEdges(n, edges, false, graph.BuildOptions{})
	graphs := map[string]*graph.Graph{"wheel": wheel}
	s, hs := newTestServer(t, graphs, Config{Mutable: true, CompactFraction: 0.25})

	var wg sync.WaitGroup
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 25; i++ {
				v := uint32(1 + rng.Intn(n-2))
				e := UpdateEdge{U: v, V: v + 1} // rim edge; spokes stay
				if st, _ := postUpdate(t, hs.URL, "wheel", UpdateRequest{Deletes: []UpdateEdge{e}}); st != http.StatusOK {
					t.Errorf("delete: %d", st)
					return
				}
				if st, _ := postUpdate(t, hs.URL, "wheel", UpdateRequest{Inserts: []UpdateEdge{e}}); st != http.StatusOK {
					t.Errorf("insert: %d", st)
					return
				}
			}
		}(u)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var br BFSResponse
				st, _ := getJSON(t, hs.URL+fmt.Sprintf("/query/bfs?graph=wheel&src=1&cache=%s",
					[]string{"off", "on"}[i%2]), &br)
				if st != http.StatusOK {
					t.Errorf("querier %d: status %d", id, st)
					return
				}
				if br.Reached != n {
					t.Errorf("querier %d: reached %d, want %d (torn epoch view?)", id, br.Reached, n)
					return
				}
				// Spokes never mutate: 0 is adjacent to 1, and every other
				// vertex is at most 2 away (through 0), in EVERY epoch.
				if br.Dist[0] != 1 || br.Ecc > 2 {
					t.Errorf("querier %d: dist[0]=%d ecc=%d, not from any single epoch",
						id, br.Dist[0], br.Ecc)
					return
				}
				// dist[2] is 1 exactly when rim edge (1,2) is present — it
				// may be either across epochs, but never anything else.
				if d := br.Dist[2]; d != 1 && d != 2 {
					t.Errorf("querier %d: dist[2] = %d", id, d)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// All pins released: exactly the current epoch stays live.
	var met MetricsResponse
	if st, _ := getJSON(t, hs.URL+"/metrics", &met); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	if us := met.Updates["wheel"]; us.LiveEpochs != 1 {
		t.Fatalf("epochs leaked after quiesce: %+v", us)
	}
	s.Close()
}
