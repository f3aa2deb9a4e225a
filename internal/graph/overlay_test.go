package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// buildPatch turns per-vertex add/del maps into the CSR-shaped patch
// arrays NewOverlay expects.
func buildPatch(n int, adds map[uint32][]Edge, dels map[uint32][]uint32, weighted bool) ([]uint64, []uint32, []uint32, []uint64, []uint32) {
	addOff := make([]uint64, n+1)
	delOff := make([]uint64, n+1)
	var addDst, addW, delDst []uint32
	for v := 0; v < n; v++ {
		addOff[v] = uint64(len(addDst))
		for _, e := range adds[uint32(v)] {
			addDst = append(addDst, e.V)
			if weighted {
				addW = append(addW, e.W)
			}
		}
		delOff[v] = uint64(len(delDst))
		delDst = append(delDst, dels[uint32(v)]...)
	}
	addOff[n] = uint64(len(addDst))
	delOff[n] = uint64(len(delDst))
	if weighted && addW == nil {
		addW = make([]uint32, 0)
	}
	return addOff, addDst, addW, delOff, delDst
}

func TestOverlayScansAndMaterialize(t *testing.T) {
	// Base: directed path 0->1->2->3 plus 0->2, weighted.
	base := FromEdges(5, []Edge{
		{0, 1, 10}, {1, 2, 20}, {2, 3, 30}, {0, 2, 40},
	}, true, BuildOptions{Weighted: true})

	// Patch: delete 1->2, add 1->3 (w 7), add 3->0 (w 9), and change
	// the weight of 0->2 to 41 (tombstone + add).
	addOff, adds, addW, delOff, dels := buildPatch(5,
		map[uint32][]Edge{1: {{1, 3, 7}}, 3: {{3, 0, 9}}, 0: {{0, 2, 41}}},
		map[uint32][]uint32{1: {2}, 0: {2}},
		true)
	o := NewOverlay(base, addOff, adds, addW, delOff, dels)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	if got, want := o.NumArcs(), 5; got != want {
		t.Fatalf("NumArcs = %d, want %d", got, want)
	}
	wantAdj := map[uint32][]uint32{0: {1, 2}, 1: {3}, 2: {3}, 3: {0}, 4: {}}
	wantW := map[uint32][]uint32{0: {10, 41}, 1: {7}, 2: {30}, 3: {9}, 4: {}}
	for v := uint32(0); v < 5; v++ {
		nbrs := o.AppendNeighbors(v, nil)
		if !reflect.DeepEqual(append([]uint32{}, nbrs...), append([]uint32{}, wantAdj[v]...)) {
			t.Fatalf("AppendNeighbors(%d) = %v, want %v", v, nbrs, wantAdj[v])
		}
		if got := o.DegreeOf(v); got != len(wantAdj[v]) {
			t.Fatalf("DegreeOf(%d) = %d, want %d", v, got, len(wantAdj[v]))
		}
		an, aw := o.AppendArcs(v, nil, nil)
		if !reflect.DeepEqual(append([]uint32{}, an...), append([]uint32{}, wantAdj[v]...)) ||
			!reflect.DeepEqual(append([]uint32{}, aw...), append([]uint32{}, wantW[v]...)) {
			t.Fatalf("AppendArcs(%d) = %v/%v, want %v/%v", v, an, aw, wantAdj[v], wantW[v])
		}
	}
	if !o.HasArc(1, 3) || o.HasArc(1, 2) || !o.HasArc(0, 2) || o.HasArc(4, 0) {
		t.Fatal("HasArc answers wrong")
	}

	mat := o.Materialize()
	if err := mat.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 5; v++ {
		if !reflect.DeepEqual(append([]uint32{}, mat.Neighbors(v)...), append([]uint32{}, wantAdj[v]...)) ||
			!reflect.DeepEqual(append([]uint32{}, mat.NeighborWeights(v)...), append([]uint32{}, wantW[v]...)) {
			t.Fatalf("materialized arcs of %d = %v/%v, want %v/%v",
				v, mat.Neighbors(v), mat.NeighborWeights(v), wantAdj[v], wantW[v])
		}
	}
}

func TestOverlayTranspose(t *testing.T) {
	base := FromEdges(4, []Edge{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}, true, BuildOptions{})
	addOff, adds, addW, delOff, dels := buildPatch(4,
		map[uint32][]Edge{3: {{3, 1, 0}}},
		map[uint32][]uint32{2: {0}},
		false)
	o := NewOverlay(base, addOff, adds, addW, delOff, dels)
	tr := o.Transpose()
	if tr != o.Transpose() {
		t.Fatal("transpose not cached")
	}
	if tr.Transpose() != o {
		t.Fatal("transpose round trip not free")
	}
	want := o.Materialize().Transpose()
	got := tr.Materialize()
	if !reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("transpose overlay = %v, want %v", got.Edges, want.Edges)
	}
}

func TestOverlayUndirectedSelfTranspose(t *testing.T) {
	base := FromEdges(3, []Edge{{0, 1, 0}}, false, BuildOptions{})
	o := EmptyOverlay(base)
	if o.Transpose() != o {
		t.Fatal("undirected overlay must be its own transpose")
	}
	if got := o.AppendNeighbors(0, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("empty overlay scan = %v", got)
	}
}

// TestOverlayFromEdits pins the convenience constructor's batch
// semantics against a from-scratch rebuild of the edited edge set.
func TestOverlayFromEdits(t *testing.T) {
	for _, tc := range []struct {
		name     string
		directed bool
		weighted bool
	}{
		{"undirected", false, false},
		{"directed", true, false},
		{"directed-weighted", true, true},
		{"undirected-weighted", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			n := 60
			present := map[[2]uint32]uint32{}
			var edges []Edge
			for i := 0; i < 4*n; i++ {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				if u == v {
					continue
				}
				if _, dup := present[[2]uint32{u, v}]; dup {
					continue
				}
				w := uint32(0)
				if tc.weighted {
					w = 1 + uint32(rng.Intn(99))
				}
				present[[2]uint32{u, v}] = w
				if !tc.directed {
					present[[2]uint32{v, u}] = w
				}
				edges = append(edges, Edge{U: u, V: v, W: w})
			}
			base := FromEdges(n, edges, tc.directed, BuildOptions{Weighted: tc.weighted})

			// Edits: delete some base edges, add fresh ones, change a
			// weight, and throw in every no-op class the contract names.
			var dels, adds []Edge
			want := map[[2]uint32]uint32{}
			for k, w := range present {
				want[k] = w
			}
			removed := 0
			for _, e := range edges {
				if removed >= len(edges)/4 {
					break
				}
				removed++
				dels = append(dels, Edge{U: e.U, V: e.V})
				delete(want, [2]uint32{e.U, e.V})
				if !tc.directed {
					delete(want, [2]uint32{e.V, e.U})
				}
			}
			for i := 0; i < n; i++ {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				if u == v {
					continue
				}
				if _, live := want[[2]uint32{u, v}]; live {
					continue
				}
				w := uint32(0)
				if tc.weighted {
					w = 1 + uint32(rng.Intn(99))
				}
				adds = append(adds, Edge{U: u, V: v, W: w})
				want[[2]uint32{u, v}] = w
				if !tc.directed {
					want[[2]uint32{v, u}] = w
				}
			}
			if tc.weighted {
				// A pure weight change on a surviving base edge.
				for _, e := range edges[len(edges)-1:] {
					if _, live := want[[2]uint32{e.U, e.V}]; live {
						adds = append(adds, Edge{U: e.U, V: e.V, W: e.W + 1})
						want[[2]uint32{e.U, e.V}] = e.W + 1
						if !tc.directed {
							want[[2]uint32{e.V, e.U}] = e.W + 1
						}
					}
				}
			}
			// No-ops: self-loop, out-of-range, delete of an absent edge,
			// re-add of an identical live arc.
			adds = append(adds, Edge{U: 3, V: 3}, Edge{U: uint32(n), V: 0})
			dels = append(dels, Edge{U: uint32(n + 1), V: 2})
			if len(edges) > 0 {
				if w, live := want[[2]uint32{edges[0].U, edges[0].V}]; live || w != 0 {
					adds = append(adds, Edge{U: edges[0].U, V: edges[0].V, W: w})
				}
				dels = append(dels, Edge{U: edges[0].U, V: edges[0].U})
			}

			o := OverlayFromEdits(base, dels, adds)
			if err := o.Validate(); err != nil {
				t.Fatal(err)
			}
			var wantEdges []Edge
			for k, w := range want {
				if tc.directed || k[0] < k[1] {
					wantEdges = append(wantEdges, Edge{U: k[0], V: k[1], W: w})
				}
			}
			ref := FromEdges(n, wantEdges, tc.directed, BuildOptions{Weighted: tc.weighted})
			got := o.Materialize()
			if !reflect.DeepEqual(ref.Offsets, got.Offsets) || !reflect.DeepEqual(ref.Edges, got.Edges) {
				t.Fatal("OverlayFromEdits disagrees with rebuild")
			}
			if tc.weighted && !reflect.DeepEqual(ref.Weights, got.Weights) {
				t.Fatal("OverlayFromEdits weights disagree with rebuild")
			}
		})
	}
}

func TestOverlayRandomizedAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(40)
		directed := trial%2 == 0
		present := map[[2]uint32]bool{}
		var edges []Edge
		for i := 0; i < 3*n; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u == v || present[[2]uint32{u, v}] {
				continue
			}
			present[[2]uint32{u, v}] = true
			if !directed {
				present[[2]uint32{v, u}] = true
			}
			edges = append(edges, Edge{U: u, V: v})
		}
		base := FromEdges(n, edges, directed, BuildOptions{})

		// Random patch: tombstone some base arcs, add some absent arcs.
		dels := map[uint32][]uint32{}
		adds := map[uint32][]Edge{}
		effective := map[[2]uint32]bool{}
		for k := range present {
			effective[k] = true
		}
		for u := 0; u < n; u++ {
			for _, v := range base.Neighbors(uint32(u)) {
				if rng.Intn(4) == 0 && (directed || uint32(u) < v) {
					dels[uint32(u)] = append(dels[uint32(u)], v)
					delete(effective, [2]uint32{uint32(u), v})
					if !directed {
						dels[v] = append(dels[v], uint32(u))
						delete(effective, [2]uint32{v, uint32(u)})
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u == v || present[[2]uint32{u, v}] || effective[[2]uint32{u, v}] {
				continue
			}
			adds[u] = append(adds[u], Edge{U: u, V: v})
			effective[[2]uint32{u, v}] = true
			if !directed {
				adds[v] = append(adds[v], Edge{U: v, V: u})
				effective[[2]uint32{v, u}] = true
			}
		}
		for u := range adds {
			list := adds[u]
			for i := 1; i < len(list); i++ {
				for j := i; j > 0 && list[j-1].V > list[j].V; j-- {
					list[j-1], list[j] = list[j], list[j-1]
				}
			}
			// Drop within-list duplicates from repeated random picks.
			out := list[:0]
			for i, e := range list {
				if i == 0 || e.V != list[i-1].V {
					out = append(out, e)
				}
			}
			adds[u] = out
		}
		for u := range dels {
			list := dels[u]
			for i := 1; i < len(list); i++ {
				for j := i; j > 0 && list[j-1] > list[j]; j-- {
					list[j-1], list[j] = list[j], list[j-1]
				}
			}
			dels[u] = list
		}

		addOff, addDst, addW, delOff, delDst := buildPatch(n, adds, dels, false)
		o := NewOverlay(base, addOff, addDst, addW, delOff, delDst)
		if err := o.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want []Edge
		for k := range effective {
			if directed || k[0] < k[1] {
				want = append(want, Edge{U: k[0], V: k[1]})
			}
		}
		ref := FromEdges(n, want, directed, BuildOptions{})
		got := o.Materialize()
		if !reflect.DeepEqual(ref.Offsets, got.Offsets) || !reflect.DeepEqual(ref.Edges, got.Edges) {
			t.Fatalf("trial %d: materialized overlay disagrees with rebuild", trial)
		}
		if directed {
			rt, gt := ref.Transpose(), o.Transpose().Materialize()
			if !reflect.DeepEqual(rt.Offsets, gt.Offsets) || !reflect.DeepEqual(rt.Edges, gt.Edges) {
				t.Fatalf("trial %d: overlay transpose disagrees with rebuild transpose", trial)
			}
		}
	}
}

// TestOverlayAccessors pins the Adjacency surface of the overlay view:
// sizes, direction, weights, patched degrees, and the debug string, on
// directed/undirected and weighted/unweighted bases.
func TestOverlayAccessors(t *testing.T) {
	dbase := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, true, BuildOptions{})
	d := OverlayFromEdits(dbase, []Edge{{U: 1, V: 2}}, []Edge{{U: 0, V: 4}, {U: 3, V: 0}})
	if d.Base() != dbase {
		t.Fatal("Base must return the wrapped graph")
	}
	if d.PatchArcs() != 3 {
		t.Fatalf("PatchArcs = %d, want 3 (2 adds + 1 tombstone)", d.PatchArcs())
	}
	if d.NumVertices() != 5 || d.NumArcs() != 4 || !d.IsDirected() || d.HasWeights() {
		t.Fatalf("surface: n=%d m=%d dir=%v w=%v", d.NumVertices(), d.NumArcs(), d.IsDirected(), d.HasWeights())
	}
	if got := d.DegreeOf(1); got != 0 {
		t.Fatalf("DegreeOf(1) = %d, want 0 after tombstone", got)
	}
	if got := d.String(); got != "overlay directed graph: n=5 m=4 (+2/-1 patch arcs)" {
		t.Fatalf("String() = %q", got)
	}
	d.sealed() // the seam marker is inert by construction

	ubase := FromEdges(4, []Edge{{U: 0, V: 1, W: 7}, {U: 1, V: 2, W: 9}}, false, BuildOptions{Weighted: true})
	u := OverlayFromEdits(ubase, nil, []Edge{{U: 2, V: 3, W: 5}})
	if u.IsDirected() || !u.HasWeights() || u.NumArcs() != 6 {
		t.Fatalf("surface: dir=%v w=%v m=%d", u.IsDirected(), u.HasWeights(), u.NumArcs())
	}
	if got := u.String(); got != "overlay undirected weighted graph: n=4 m=3 (+2/-0 patch arcs)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestNewOverlayPanics pins the constructor preconditions: weight-array
// presence must match the base, and patch offsets must have N+1 entries.
func TestNewOverlayPanics(t *testing.T) {
	base := FromEdges(3, []Edge{{U: 0, V: 1}}, true, BuildOptions{})
	off := make([]uint64, base.N+1)
	for name, call := range map[string]func(){
		"weights-on-unweighted": func() { NewOverlay(base, off, nil, []uint32{}, off, nil) },
		"short-add-offsets":     func() { NewOverlay(base, off[:2], nil, nil, off, nil) },
		"short-del-offsets":     func() { NewOverlay(base, off, nil, nil, off[:1], nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestOverlayValidateErrors drives every invariant Validate enforces by
// corrupting one captured patch array at a time.
func TestOverlayValidateErrors(t *testing.T) {
	base := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, true, BuildOptions{})
	off := func(vals ...uint64) []uint64 { return vals }
	for name, o := range map[string]*Overlay{
		"bad-off-len":      {base: base, addOff: off(0, 0), delOff: off(0, 0, 0, 0, 0)},
		"add-span":         {base: base, addOff: off(0, 0, 0, 0, 1), delOff: off(0, 0, 0, 0, 0)},
		"del-span":         {base: base, addOff: off(0, 0, 0, 0, 0), delOff: off(0, 0, 0, 0, 3)},
		"weight-mismatch":  {base: base, addOff: off(0, 0, 0, 0, 0), delOff: off(0, 0, 0, 0, 0), addW: []uint32{1}},
		"decreasing-off":   {base: base, addOff: off(0, 1, 0, 1, 1), adds: []uint32{3}, delOff: off(0, 0, 0, 0, 0)},
		"add-out-of-range": {base: base, addOff: off(0, 1, 1, 1, 1), adds: []uint32{9}, delOff: off(0, 0, 0, 0, 0)},
		"add-self-loop":    {base: base, addOff: off(0, 1, 1, 1, 1), adds: []uint32{0}, delOff: off(0, 0, 0, 0, 0)},
		"adds-unsorted":    {base: base, addOff: off(0, 0, 2, 2, 2), adds: []uint32{3, 0}, delOff: off(0, 0, 0, 0, 0)},
		"add-duplicates":   {base: base, addOff: off(0, 1, 1, 1, 1), adds: []uint32{1}, delOff: off(0, 0, 0, 0, 0)},
		"dels-unsorted":    {base: base, addOff: off(0, 0, 0, 0, 0), delOff: off(0, 2, 2, 2, 2), dels: []uint32{2, 1}},
		"phantom-del":      {base: base, addOff: off(0, 0, 0, 0, 0), delOff: off(0, 1, 1, 1, 1), dels: []uint32{3}},
	} {
		if err := o.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a corrupt overlay", name)
		}
	}
	ok := OverlayFromEdits(base, []Edge{{U: 0, V: 2}}, []Edge{{U: 0, V: 3}, {U: 0, V: 2}})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid overlay rejected: %v", err)
	}
}
