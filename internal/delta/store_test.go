package delta

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pasgal/internal/core"
	"pasgal/internal/graph"
)

func mustApply(t *testing.T, s *Store, batch []Update) Result {
	t.Helper()
	res, err := s.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// viewEdges flattens an Adjacency into a sorted CSR Graph for
// comparison.
func viewCSR(t *testing.T, a graph.Adjacency) *graph.Graph {
	t.Helper()
	switch g := a.(type) {
	case *graph.Graph:
		return g
	case *graph.Overlay:
		return g.Materialize()
	default:
		t.Fatalf("unexpected view type %T", a)
		return nil
	}
}

func TestStoreCanonicalization(t *testing.T) {
	base := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: -1})
	defer s.Close()

	// Inserting a present edge, deleting an absent one, a self-loop, and
	// a within-batch insert+delete pair must all cancel to nothing.
	res := mustApply(t, s, []Update{
		{U: 0, V: 1, Op: Insert},
		{U: 3, V: 4, Op: Delete},
		{U: 2, V: 2, Op: Insert},
		{U: 4, V: 5, Op: Insert},
		{U: 4, V: 5, Op: Delete},
	})
	if res.Epoch != 0 || res.Applied != 0 {
		t.Fatalf("no-op batch published epoch %d applied %d", res.Epoch, res.Applied)
	}

	// Last-op-wins inside a batch.
	res = mustApply(t, s, []Update{
		{U: 4, V: 5, Op: Delete},
		{U: 4, V: 5, Op: Insert},
		{U: 0, V: 1, Op: Delete},
	})
	if res.Epoch != 1 || res.Applied != 2 {
		t.Fatalf("got epoch %d applied %d, want 1/2", res.Epoch, res.Applied)
	}
	sn := s.Snapshot()
	ov := sn.Adj().(*graph.Overlay)
	if err := ov.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ov.HasArc(4, 5) || ov.HasArc(0, 1) || !ov.HasArc(1, 2) {
		t.Fatal("effective arcs wrong after batch")
	}
	sn.Release()

	// Re-inserting the deleted base arc must clear its tombstone (patch
	// shrinks back).
	mustApply(t, s, []Update{{U: 0, V: 1, Op: Insert}, {U: 4, V: 5, Op: Delete}})
	sn = s.Snapshot()
	ov = sn.Adj().(*graph.Overlay)
	if ov.PatchArcs() != 0 {
		t.Fatalf("patch should be empty after round trip, has %d arcs", ov.PatchArcs())
	}
	sn.Release()
}

func TestStoreWeightChange(t *testing.T) {
	base := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7}}, true, graph.BuildOptions{Weighted: true})
	s := NewStore(base, Options{CompactFraction: -1})
	defer s.Close()

	// Same-weight insert is a no-op; new weight is tombstone+add.
	res := mustApply(t, s, []Update{{U: 0, V: 1, W: 5, Op: Insert}})
	if res.Applied != 0 {
		t.Fatalf("same-weight insert applied %d", res.Applied)
	}
	mustApply(t, s, []Update{{U: 0, V: 1, W: 9, Op: Insert}})
	sn := s.Snapshot()
	ov := sn.Adj().(*graph.Overlay)
	if err := ov.Validate(); err != nil {
		t.Fatal(err)
	}
	nbrs, wts := ov.AppendArcs(0, nil, nil)
	if len(nbrs) != 1 || nbrs[0] != 1 || wts[0] != 9 {
		t.Fatalf("weight change lost: %v/%v", nbrs, wts)
	}
	sn.Release()

	// Back to the base weight: patch must clear.
	mustApply(t, s, []Update{{U: 0, V: 1, W: 5, Op: Insert}})
	sn = s.Snapshot()
	if ov := sn.Adj().(*graph.Overlay); ov.PatchArcs() != 0 {
		t.Fatalf("patch not cleared on base-weight restore: %d arcs", ov.PatchArcs())
	}
	sn.Release()
}

func TestStoreUndirectedExpansion(t *testing.T) {
	base := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}}, false, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: -1})
	defer s.Close()
	res := mustApply(t, s, []Update{{U: 2, V: 3, Op: Insert}})
	if res.Applied != 2 {
		t.Fatalf("undirected insert applied %d arcs, want 2", res.Applied)
	}
	sn := s.Snapshot()
	defer sn.Release()
	ov := sn.Adj().(*graph.Overlay)
	if !ov.HasArc(2, 3) || !ov.HasArc(3, 2) {
		t.Fatal("undirected insert must add both arcs")
	}
}

func TestSnapshotIsolationAndRetirement(t *testing.T) {
	base := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: -1})
	defer s.Close()

	old := s.Snapshot()
	oldDist, _, err := core.BFS(old.Adj(), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	mustApply(t, s, []Update{{U: 2, V: 3, Op: Insert}})
	// The old snapshot must still answer from its pinned epoch.
	again, _, err := core.BFS(old.Adj(), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oldDist, again) {
		t.Fatal("pinned snapshot changed under an update")
	}
	cur := s.Snapshot()
	curDist, _, err := core.BFS(cur.Adj(), 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if curDist[3] == graph.InfDist {
		t.Fatal("new epoch missing the inserted edge")
	}
	cur.Release()

	if st := s.Stats(); st.LiveEpochs != 2 {
		t.Fatalf("want 2 live epochs (pinned old + current), have %d", st.LiveEpochs)
	}
	old.Release()
	if st := s.Stats(); st.LiveEpochs != 1 || st.Retired == 0 {
		t.Fatalf("old epoch did not retire: %+v", st)
	}
	old.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Adj after Release must panic")
		}
	}()
	old.Adj() //pasgal:vet ignore=epoch-misuse -- the panic on a use after Release is what this test checks
}

func TestCompactFoldsPatch(t *testing.T) {
	base := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, false, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: -1})
	defer s.Close()
	mustApply(t, s, []Update{{U: 3, V: 4, Op: Insert}, {U: 0, V: 1, Op: Delete}})

	sn := s.Snapshot()
	want := viewCSR(t, sn.Adj())
	sn.Release()

	epoch, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("compaction epoch = %d, want 2", epoch)
	}
	sn = s.Snapshot()
	defer sn.Release()
	got, ok := sn.Adj().(*graph.Graph)
	if !ok {
		t.Fatalf("compacted view is %T, want *graph.Graph", sn.Adj())
	}
	if !reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatal("compacted CSR differs from overlay materialization")
	}
	if st := s.Stats(); st.Compactions != 1 || st.PatchArcs != 0 {
		t.Fatalf("stats after compact: %+v", st)
	}
	// Compacting an empty patch is a no-op.
	if e2, err := s.Compact(); err != nil || e2 != epoch {
		t.Fatalf("empty compact: epoch %d err %v", e2, err)
	}
}

func TestStoreErrors(t *testing.T) {
	base := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, true, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: -1})
	if _, err := s.Apply([]Update{{U: 0, V: 7, Op: Insert}}); err == nil {
		t.Fatal("out-of-range update must fail")
	}
	s.Close()
	if _, err := s.Apply([]Update{{U: 0, V: 2, Op: Insert}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}
	if _, err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v", err)
	}
	s.Close() // idempotent
}

func TestAutoCompaction(t *testing.T) {
	base := graph.FromEdges(64, []graph.Edge{{U: 0, V: 1}}, true, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: 0.5})
	// One small base arc: any real batch trips the threshold.
	mustApply(t, s, []Update{{U: 1, V: 2, Op: Insert}, {U: 2, V: 3, Op: Insert}})
	// A Close racing in could drop the background compaction by design,
	// so give it time to land first.
	for i := 0; i < 2000 && s.Stats().Compactions == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("auto-compaction never ran: %+v", st)
	}
	if st.PatchArcs != 0 {
		t.Fatalf("patch not folded: %+v", st)
	}
}

func TestStoreLargeBatchRadixPath(t *testing.T) {
	// Push the batch past parallel.SortFunc's sequential cutoff (4096
	// recs), so canonicalize's sort runs as a parallel merge, and check
	// the result against a map-model rebuild.
	n := 3000
	base := graph.FromEdges(n, nil, true, graph.BuildOptions{})
	s := NewStore(base, Options{CompactFraction: -1})
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	truth := map[[2]uint32]bool{}
	batch := make([]Update, 0, 6000)
	for i := 0; i < 6000; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(5) == 0 {
			batch = append(batch, Update{U: u, V: v, Op: Delete})
			delete(truth, [2]uint32{u, v})
		} else {
			batch = append(batch, Update{U: u, V: v, Op: Insert})
			truth[[2]uint32{u, v}] = true
		}
	}
	mustApply(t, s, batch)
	var edges []graph.Edge
	for k := range truth {
		edges = append(edges, graph.Edge{U: k[0], V: k[1]})
	}
	want := graph.FromEdges(n, edges, true, graph.BuildOptions{})
	sn := s.Snapshot()
	defer sn.Release()
	got := viewCSR(t, sn.Adj())
	if !reflect.DeepEqual(want.Offsets, got.Offsets) || !reflect.DeepEqual(want.Edges, got.Edges) {
		t.Fatal("radix-path batch disagrees with map model")
	}
}
