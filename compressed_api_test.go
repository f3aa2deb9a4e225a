package pasgal

import (
	"path/filepath"
	"testing"
)

// TestCompressedPublicAPI drives the compressed-representation public
// surface end to end: compress, relabel, save/load/map .pz, and run the
// compressed-capable algorithms through the exported wrappers.
func TestCompressedPublicAPI(t *testing.T) {
	g := GenerateRMAT(9, 8, true, 5)
	c := CompressGraph(g)
	if c.NumVertices() != g.N || c.NumArcs() != g.M() {
		t.Fatalf("compressed shape %d/%d, want %d/%d",
			c.NumVertices(), c.NumArcs(), g.N, g.M())
	}

	// The widened algorithm entry points accept both representations.
	want, _, err := BFS(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := BFS(c, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d compressed, %d plain", v, got[v], want[v])
		}
	}
	reach, _, err := Reachable(c, []uint32{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range reach {
		if reach[v] != (want[v] != InfDist) {
			t.Fatalf("reach[%d] = %v, bfs says %v", v, reach[v], want[v] != InfDist)
		}
	}
	tdist, tparent, _, err := BFSTree(c, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if tdist[v] != want[v] || (tparent[v] != None && want[tparent[v]]+1 != want[v]) {
			t.Fatalf("BFSTree on compressed: dist[%d] = %d, parent %d, bfs says %d", v, tdist[v], tparent[v], want[v])
		}
	}
	wantL, wantN := SequentialSCC(g)
	gotL, gotN, _, err := SCC(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("SCC on compressed: %d components, Tarjan %d", gotN, wantN)
	}
	for v := range gotL { // gotL[v] is a member of v's component
		if wantL[gotL[v]] != wantL[v] {
			t.Fatalf("SCC on compressed: %d labeled %d, which Tarjan puts elsewhere", v, gotL[v])
		}
	}
	rows, _, err := BatchedBFS(c, []uint32{0, 1, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if rows[0][v] != want[v] || rows[2][v] != want[v] {
			t.Fatal("batched rows disagree with single-source BFS")
		}
	}
	if brows, _, err := BatchedReachable(c, []uint32{0}, Options{}); err != nil {
		t.Fatal(err)
	} else {
		for v := range reach {
			if brows[0][v] != reach[v] {
				t.Fatal("batched reachability disagrees with Reachable")
			}
		}
	}

	// Degree relabeling: a permutation, and distances commute with it.
	rg, perm := RelabelByDegree(g)
	if rg.N != g.N || rg.M() != g.M() {
		t.Fatal("relabeled shape differs")
	}
	rdist, _, err := BFS(rg, perm[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if rdist[perm[v]] != want[v] {
			t.Fatalf("relabeled dist[perm[%d]] = %d, want %d", v, rdist[perm[v]], want[v])
		}
	}

	// .pz persistence: verified read and mmap view both reproduce the graph.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.pz")
	if err := SaveCompressed(path, c); err != nil {
		t.Fatal(err)
	}
	lc, err := LoadCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	mc, closeMap, err := MapCompressed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeMap()
	for name, cc := range map[string]*CompressedGraph{"read": lc, "mmap": mc} {
		d := cc.Decompress()
		if d.N != g.N || d.M() != g.M() {
			t.Fatalf("%s: decompressed shape differs", name)
		}
		for e := range g.Edges {
			if d.Edges[e] != g.Edges[e] {
				t.Fatalf("%s: edge %d differs", name, e)
			}
		}
	}

	// Generic dispatchers: SaveGraph compresses, LoadGraph decompresses.
	gpath := filepath.Join(dir, "generic.pz")
	if err := SaveGraph(gpath, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(gpath, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != g.N || back.M() != g.M() {
		t.Fatal(".pz dispatch round trip differs")
	}

	// Weighted graphs keep weights through the compressed wrappers.
	wg := AddUniformWeights(g, 1, 100, 9)
	wc := CompressGraph(wg)
	wantW, _, err := SSSP(wg, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotW, _, err := SSSP(wc, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range wantW {
		if gotW[v] != wantW[v] {
			t.Fatalf("sssp dist[%d] = %d compressed, %d plain", v, gotW[v], wantW[v])
		}
	}
	tw, tp, _, err := SSSPTree(wc, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range wantW {
		if tw[v] != wantW[v] || (tp[v] == None) != (uint32(v) == 0 || wantW[v] == InfWeight) {
			t.Fatalf("SSSPTree on compressed: dist[%d] = %d, parent %d, sssp says %d", v, tw[v], tp[v], wantW[v])
		}
	}
	dst := uint32(g.N - 1)
	pw, _, err := PointToPoint(wc, 0, dst, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pw != wantW[dst] {
		t.Fatalf("p2p = %d, sssp row says %d", pw, wantW[dst])
	}
}

// TestCompressedCoalescerAPI routes coalesced queries through a
// compressed graph, matching the serving daemon's mmap configuration.
func TestCompressedCoalescerAPI(t *testing.T) {
	g := GenerateChain(500, true)
	c := CompressGraph(g)
	coal := NewCoalescer(c, CoalescerOptions{})
	defer coal.Close()
	dist, err := coal.Submit(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BFS(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("coalesced dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}
