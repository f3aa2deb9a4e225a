package core

import (
	"testing"

	"pasgal/internal/graph"
	"pasgal/internal/seq"
)

func TestBFSTreeInvariants(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for name, g := range testGraphs(directed) {
			want := seq.BFS(g, 0)
			for oname, opt := range optionMatrix() {
				dist, parent, _, _ := BFSTree(g, 0, opt)
				for v := range want {
					if dist[v] != want[v] {
						t.Fatalf("%s/%s: dist[%d] = %d, want %d",
							name, oname, v, dist[v], want[v])
					}
					if uint32(v) == 0 || dist[v] == graph.InfDist {
						if parent[v] != graph.None {
							t.Fatalf("%s/%s: parent[%d] = %d, want None",
								name, oname, v, parent[v])
						}
						continue
					}
					p := parent[v]
					if p == graph.None {
						t.Fatalf("%s/%s: reached vertex %d has no parent", name, oname, v)
					}
					if dist[p]+1 != dist[v] {
						t.Fatalf("%s/%s: parent[%d]=%d at dist %d, child at %d",
							name, oname, v, p, dist[p], dist[v])
					}
					if g.FindArc(p, uint32(v)) == ^uint64(0) {
						t.Fatalf("%s/%s: parent edge (%d,%d) not in graph",
							name, oname, p, v)
					}
				}
			}
		}
	}
}

func TestBFSTreePathToSource(t *testing.T) {
	// Walking parents from any reached vertex must arrive at the source in
	// exactly dist[v] hops.
	g := testGraphs(true)["weblike"]
	dist, parent, _, _ := BFSTree(g, 0, Options{})
	for v := uint32(0); v < uint32(g.N); v += 97 {
		if dist[v] == graph.InfDist {
			continue
		}
		u, hops := v, 0
		for u != 0 {
			u = parent[u]
			hops++
			if hops > int(dist[v]) {
				t.Fatalf("parent walk from %d exceeded dist %d", v, dist[v])
			}
		}
		if hops != int(dist[v]) {
			t.Fatalf("parent walk from %d took %d hops, dist %d", v, hops, dist[v])
		}
	}
}
