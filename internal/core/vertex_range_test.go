package core

import (
	"fmt"
	"strings"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// TestVertexOutOfRange pins that a vertex id at or past n comes back as an
// error from every traversal entry point on every representation: the
// signatures promise one, and before the check these indexed per-vertex
// arrays with the id and panicked.
func TestVertexOutOfRange(t *testing.T) {
	g := gen.AddUniformWeights(gen.Grid2D(6, 6, true, 1), 1, 9, 2)
	o, _ := overlayTwin(t, g, 3)
	n := uint32(g.N)
	reprs := map[string]graph.Adjacency{"plain": g, "pz": graph.Compress(g), "overlay": o}
	calls := map[string]func(a graph.Adjacency, v uint32) error{
		"BFS":      func(a graph.Adjacency, v uint32) error { _, _, err := BFS(a, v, Options{}); return err },
		"BFSTree":  func(a graph.Adjacency, v uint32) error { _, _, _, err := BFSTree(a, v, Options{}); return err },
		"SSSP":     func(a graph.Adjacency, v uint32) error { _, _, err := SSSP(a, v, nil, Options{}); return err },
		"SSSPTree": func(a graph.Adjacency, v uint32) error { _, _, _, err := SSSPTree(a, v, nil, Options{}); return err },
		"PointToPoint/src": func(a graph.Adjacency, v uint32) error {
			_, _, err := PointToPoint(a, v, 0, nil, Options{})
			return err
		},
		"PointToPoint/dst": func(a graph.Adjacency, v uint32) error {
			_, _, err := PointToPoint(a, 0, v, nil, Options{})
			return err
		},
		"Reachable": func(a graph.Adjacency, v uint32) error {
			_, _, err := Reachable(a, []uint32{0, v}, Options{})
			return err
		},
	}
	for rname, a := range reprs {
		for cname, call := range calls {
			for _, bad := range []uint32{n, n + 5, ^uint32(0)} {
				err := call(a, bad)
				if want := fmt.Sprintf("%d out of range [0, %d)", bad, n); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s on %s: vertex %d of %d: error %v, want one naming %q", cname, rname, bad, n, err, want)
				}
			}
			if err := call(a, n-1); err != nil {
				t.Errorf("%s on %s: last vertex rejected: %v", cname, rname, err)
			}
		}
	}
	// An empty graph has no valid source at all.
	if _, _, err := BFS(graph.FromEdges(0, nil, true, graph.BuildOptions{}), 0, Options{}); err == nil {
		t.Error("BFS from vertex 0 of an empty graph accepted")
	}
}
