package euler

import (
	"math/rand/v2"
	"testing"

	"pasgal/internal/graph"
)

// minLabels labels every vertex with the minimum id of its tree, the
// labels Build takes from its caller, by a sequential union–find.
func minLabels(n int, tree []graph.Edge) []uint32 {
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(v uint32) uint32
	find = func(v uint32) uint32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for _, e := range tree {
		a, b := find(e.U), find(e.V)
		parent[max(a, b)] = min(a, b)
	}
	comp := make([]uint32, n)
	for v := range comp {
		comp[v] = find(uint32(v))
	}
	return comp
}

// build is Build with the labels its callers already hold.
func build(n int, tree []graph.Edge) *Forest { return Build(n, tree, minLabels(n, tree)) }

// checkForest verifies all structural invariants of a rooted forest built
// from the given tree edges:
//   - Pre is a permutation of [0,n)
//   - roots have Parent == None and Comp == own id
//   - every tree edge connects a child to its Parent
//   - Pre[parent] < Pre[child] and the child interval nests strictly inside
//     the parent interval
//   - Size sums match component sizes; sibling intervals are disjoint
func checkForest(t *testing.T, n int, tree []graph.Edge, f *Forest) {
	t.Helper()
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		p := f.Pre[v]
		if p >= uint32(n) || seen[p] {
			t.Fatalf("Pre not a permutation: Pre[%d]=%d", v, p)
		}
		seen[p] = true
	}
	// Parent relation covers exactly the tree edges.
	edgeSet := map[[2]uint32]bool{}
	for _, e := range tree {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		edgeSet[[2]uint32{a, b}] = true
	}
	nonRoots := 0
	for v := uint32(0); v < uint32(n); v++ {
		par := f.Parent[v]
		if par == graph.None {
			if f.Comp[v] != v {
				t.Fatalf("root %d has comp %d", v, f.Comp[v])
			}
			continue
		}
		nonRoots++
		a, b := v, par
		if a > b {
			a, b = b, a
		}
		if !edgeSet[[2]uint32{a, b}] {
			t.Fatalf("parent edge (%d,%d) not a tree edge", v, par)
		}
		if f.Pre[par] >= f.Pre[v] {
			t.Fatalf("Pre[parent %d]=%d >= Pre[child %d]=%d", par, f.Pre[par], v, f.Pre[v])
		}
		if f.Pre[v] < f.Pre[par] || f.Last(v) > f.Last(par) {
			t.Fatalf("child interval [%d,%d] escapes parent [%d,%d]",
				f.Pre[v], f.Last(v), f.Pre[par], f.Last(par))
		}
		if !f.IsAncestor(par, v) || f.IsAncestor(v, par) {
			t.Fatal("IsAncestor inconsistent with parent relation")
		}
	}
	if nonRoots != len(tree) {
		t.Fatalf("%d non-roots, %d tree edges", nonRoots, len(tree))
	}
	// Subtree sizes: Size[v] = 1 + sum of children sizes.
	childSum := make([]uint32, n)
	for v := uint32(0); v < uint32(n); v++ {
		if p := f.Parent[v]; p != graph.None {
			childSum[p] += f.Size[v]
		}
	}
	for v := uint32(0); v < uint32(n); v++ {
		if f.Size[v] != childSum[v]+1 {
			t.Fatalf("Size[%d]=%d, children sum %d", v, f.Size[v], childSum[v])
		}
	}
	// Ancestor queries vs parent-walking, all pairs: small forests only.
	if n > 2000 {
		return
	}
	for v := uint32(0); v < uint32(n); v++ {
		anc := map[uint32]bool{v: true}
		for u := v; f.Parent[u] != graph.None; {
			u = f.Parent[u]
			anc[u] = true
		}
		for u := uint32(0); u < uint32(n); u++ {
			if f.IsAncestor(u, v) != anc[u] {
				t.Fatalf("IsAncestor(%d,%d) = %v, want %v", u, v, f.IsAncestor(u, v), anc[u])
			}
		}
	}
}

func TestPathTree(t *testing.T) {
	n := 50
	tree := make([]graph.Edge, n-1)
	for i := range tree {
		tree[i] = graph.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	f := build(n, tree)
	checkForest(t, n, tree, f)
	// Rooted at 0, the path's preorder is the identity.
	for v := 0; v < n; v++ {
		if f.Pre[v] != uint32(v) {
			t.Fatalf("Pre[%d]=%d", v, f.Pre[v])
		}
		if f.Size[v] != uint32(n-v) {
			t.Fatalf("Size[%d]=%d", v, f.Size[v])
		}
	}
	if f.Parent[0] != graph.None || f.Parent[7] != 6 {
		t.Fatal("path parents wrong")
	}
}

func TestStarTree(t *testing.T) {
	n := 20
	tree := make([]graph.Edge, n-1)
	for i := range tree {
		tree[i] = graph.Edge{U: 0, V: uint32(i + 1)}
	}
	f := build(n, tree)
	checkForest(t, n, tree, f)
	if f.Size[0] != uint32(n) || f.Pre[0] != 0 {
		t.Fatal("star root wrong")
	}
	for v := 1; v < n; v++ {
		if f.Parent[v] != 0 || f.Size[v] != 1 {
			t.Fatalf("star leaf %d wrong", v)
		}
	}
}

func TestForestWithIsolatedVertices(t *testing.T) {
	// Vertices 0-2 form a path, 3 is isolated, 4-5 an edge.
	tree := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 4, V: 5}}
	f := build(6, tree)
	checkForest(t, 6, tree, f)
	if len(f.Roots) != 3 {
		t.Fatalf("roots = %v", f.Roots)
	}
	if f.Parent[3] != graph.None || f.Size[3] != 1 {
		t.Fatal("isolated vertex wrong")
	}
	// Component preorder blocks are contiguous: sizes 3,1,2.
	if f.Pre[0] != 0 || f.Pre[3] != 3 || f.Pre[4] != 4 {
		t.Fatalf("component bases wrong: %v %v %v", f.Pre[0], f.Pre[3], f.Pre[4])
	}
}

func TestEmptyAndSingle(t *testing.T) {
	f := build(0, nil)
	if f.N != 0 {
		t.Fatal("empty forest")
	}
	f = build(1, nil)
	checkForest(t, 1, nil, f)
	if f.Size[0] != 1 || f.Pre[0] != 0 {
		t.Fatal("single vertex wrong")
	}
}

// randomTree returns a uniform-ish random labeled tree on n vertices with
// shuffled vertex labels (so the min-id root sits anywhere structurally).
func randomTree(rng *rand.Rand, n int) []graph.Edge {
	perm := rng.Perm(n)
	tree := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		j := rng.IntN(i)
		tree = append(tree, graph.Edge{U: uint32(perm[j]), V: uint32(perm[i])})
	}
	return tree
}

func TestRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(200)
		tree := randomTree(rng, n)
		f := build(n, tree)
		checkForest(t, n, tree, f)
	}
}

func TestRandomForests(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		// Several trees side by side with interleaved labels.
		n := 0
		sizes := []int{}
		for k := 0; k < 2+rng.IntN(4); k++ {
			s := 1 + rng.IntN(60)
			sizes = append(sizes, s)
			n += s
		}
		perm := rng.Perm(n)
		var tree []graph.Edge
		base := 0
		for _, s := range sizes {
			for i := 1; i < s; i++ {
				j := rng.IntN(i)
				tree = append(tree, graph.Edge{
					U: uint32(perm[base+j]), V: uint32(perm[base+i])})
			}
			base += s
		}
		f := build(n, tree)
		checkForest(t, n, tree, f)
		if len(f.Roots) != len(sizes) {
			t.Fatalf("trial %d: %d roots, want %d", trial, len(f.Roots), len(sizes))
		}
	}
}

func TestDeepTree(t *testing.T) {
	// 100k-vertex path: one list of 200k arcs, thousands of segments.
	n := 100000
	tree := make([]graph.Edge, n-1)
	for i := range tree {
		tree[i] = graph.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	f := build(n, tree)
	if f.Pre[n-1] != uint32(n-1) || f.Size[0] != uint32(n) {
		t.Fatal("deep path wrong")
	}
}

func TestFirstLastAccessors(t *testing.T) {
	tree := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	f := build(3, tree)
	for v := uint32(0); v < 3; v++ {
		if f.First(v) != f.Pre[v] {
			t.Fatalf("First(%d) = %d, Pre = %d", v, f.First(v), f.Pre[v])
		}
		if f.Last(v) != f.Pre[v]+f.Size[v]-1 {
			t.Fatalf("Last(%d) inconsistent", v)
		}
	}
	if f.First(0) != 0 || f.Last(0) != 2 {
		t.Fatal("root interval wrong")
	}
}
