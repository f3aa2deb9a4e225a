package delta

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// TestStressConcurrentUpdatesQueries is the snapshot-isolation stress
// test run under -race by scripts/check.sh: writer goroutines apply
// random batches (with auto-compaction enabled, so background Compact
// races the appliers and the readers), while reader goroutines pin
// snapshots and check that a pinned epoch's answers are internally
// consistent — two BFS runs on the same pinned snapshot must agree
// even while the store churns underneath.
func TestStressConcurrentUpdatesQueries(t *testing.T) {
	base := gen.ER(256, 512, false, 0x57BE55)
	s := NewStore(base, Options{CompactFraction: 0.25})
	defer s.Close()

	const (
		writers        = 3
		readers        = 4
		batchesPerW    = 30
		queriesPerRead = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for b := 0; b < batchesPerW; b++ {
				batch := make([]Update, 0, 16)
				for i := 0; i < 16; i++ {
					u := uint32(rng.Intn(base.N))
					v := uint32(rng.Intn(base.N))
					op := Insert
					if rng.Intn(3) == 0 {
						op = Delete
					}
					batch = append(batch, Update{U: u, V: v, Op: op})
				}
				if _, err := s.Apply(batch); err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
				if b%10 == 9 {
					if _, err := s.Compact(); err != nil {
						t.Errorf("writer %d compact: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + id)))
			for q := 0; q < queriesPerRead; q++ {
				sn := s.Snapshot()
				src := uint32(rng.Intn(base.N))
				d1, _, err := core.BFS(sn.Adj(), src, core.Options{})
				if err != nil {
					t.Errorf("reader %d: %v", id, err)
					sn.Release()
					return
				}
				// Same pinned epoch: a second run (and a re-read of the
				// view) must see the identical graph.
				d2, _, err := core.BFS(sn.Adj(), src, core.Options{})
				if err != nil {
					t.Errorf("reader %d: %v", id, err)
					sn.Release()
					return
				}
				if !reflect.DeepEqual(d1, d2) {
					t.Errorf("reader %d: pinned snapshot epoch %d answered differently across runs", id, sn.Epoch())
					sn.Release()
					return
				}
				sn.Release()
			}
		}(r)
	}
	wg.Wait()

	// Quiesced store must satisfy the differential guarantee: the final
	// overlay view equals a from-scratch rebuild of its own arc set.
	sn := s.Snapshot()
	defer sn.Release()
	var want *graph.Graph
	switch v := sn.Adj().(type) {
	case *graph.Graph:
		want = v
	case *graph.Overlay:
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		want = v.Materialize()
	}
	var edges []graph.Edge
	for u := 0; u < want.N; u++ {
		for _, v := range want.Neighbors(uint32(u)) {
			if uint32(u) < v {
				edges = append(edges, graph.Edge{U: uint32(u), V: v})
			}
		}
	}
	rebuilt := graph.FromEdges(want.N, edges, want.Directed, graph.BuildOptions{Weighted: want.Weighted()})
	if !reflect.DeepEqual(want.Offsets, rebuilt.Offsets) || !reflect.DeepEqual(want.Edges, rebuilt.Edges) {
		t.Fatal("final state differs from from-scratch rebuild")
	}
	st := s.Stats()
	if st.Batches == 0 {
		t.Fatalf("no batches recorded: %+v", st)
	}
	if st.LiveEpochs != 1 {
		t.Fatalf("leaked epochs after all releases: %+v", st)
	}
}
