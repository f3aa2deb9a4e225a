package graph

import (
	"slices"

	"pasgal/internal/parallel"
)

// RelabelByDegree returns an isomorphic copy of g with vertices
// renumbered in nonincreasing out-degree order (ties by original id, so
// the permutation is deterministic), plus the permutation applied:
// perm[old] = new.
//
// High-degree vertices land on the smallest ids, which is what makes
// the compressed representation earn its keep on power-law graphs: most
// arcs point at hubs, so after relabeling most encoded neighbor ids are
// small, most gaps between consecutive neighbors are small, and the
// varints shrink to one or two bytes. The same clustering helps plain
// scans too — hub adjacency stays hot in cache. Distances, components,
// and reachability on the relabeled graph equal the originals modulo
// the permutation.
func RelabelByDegree(g *Graph) (*Graph, []uint32) {
	n := g.N
	if n == 0 {
		return &Graph{N: 0, Offsets: []uint64{0}, Directed: g.Directed}, []uint32{}
	}
	// Sort (maxDeg-deg, id) packed into one word: descending degree,
	// equal degrees in id order.
	maxDeg := g.MaxDegree()
	keys := make([]uint64, n)
	parallel.For(n, 0, func(v int) { keys[v] = uint64(maxDeg-g.Degree(uint32(v)))<<32 | uint64(v) })
	parallel.SortFunc(keys, func(a, b uint64) bool { return a < b })
	order := make([]uint32, n)
	perm := make([]uint32, n)
	parallel.For(n, 0, func(i int) {
		order[i] = uint32(keys[i])
		perm[order[i]] = uint32(i)
	})

	ng := &Graph{
		N:        n,
		Offsets:  make([]uint64, n+1),
		Directed: g.Directed,
	}
	parallel.For(n, 0, func(i int) { ng.Offsets[i] = uint64(g.Degree(order[i])) })
	total := parallel.Scan(ng.Offsets[:n])
	ng.Offsets[n] = total
	ng.Edges = make([]uint32, total)
	weighted := g.Weighted()
	if weighted {
		ng.Weights = make([]uint32, total)
	}
	parallel.For(n, 16, func(i int) {
		u := order[i]
		lo := ng.Offsets[i]
		nbrs := g.Neighbors(u)
		out := ng.Edges[lo : lo+uint64(len(nbrs))]
		if !weighted {
			for j, w := range nbrs {
				out[j] = perm[w]
			}
			slices.Sort(out)
			return
		}
		// Weighted lists sort as packed (neighbor, weight) pairs so the
		// weights travel with their arcs; duplicate arcs order by weight,
		// which is deterministic and preserves the multiset.
		wts := g.NeighborWeights(u)
		packed := make([]uint64, len(nbrs))
		for j, w := range nbrs {
			packed[j] = uint64(perm[w])<<32 | uint64(wts[j])
		}
		slices.Sort(packed)
		wout := ng.Weights[lo : lo+uint64(len(nbrs))]
		for j, p := range packed {
			out[j] = uint32(p >> 32)
			wout[j] = uint32(p)
		}
	})
	return ng, perm
}
