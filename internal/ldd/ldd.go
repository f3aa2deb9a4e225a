// Package ldd implements low-diameter decomposition (Miller–Peng–Xu) and
// the LDD-contraction connectivity algorithm built on it — the approach
// GBBS uses for connectivity. It is the level-synchronous, BFS-flavored
// counterpart to internal/conn's union–find: each decomposition is a
// multi-source BFS whose round count is O(log n / beta) w.h.p., so the
// contraction hierarchy pays Θ(log² n)-ish global synchronizations where
// the union–find pays none. The benchmark harness contrasts the two as a
// connectivity ablation.
package ldd

import (
	"math"
	"sync/atomic"

	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// hash64 is the splitmix64 finalizer.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Decompose partitions the vertices of a symmetric graph into clusters of
// diameter O(log n / beta) w.h.p. with ~beta*m inter-cluster edges: every
// vertex draws an exponential shift with rate beta and joins the cluster
// whose shifted BFS reaches it first. Returns the cluster label (a cluster
// center's id) per vertex and the number of BFS rounds used.
func Decompose(g *graph.Graph, beta float64, seed uint64) ([]uint32, int) {
	if g.Directed {
		panic("ldd: Decompose requires an undirected graph")
	}
	if beta <= 0 || beta > 1 {
		panic("ldd: beta must be in (0, 1]")
	}
	n := g.N
	cluster := make([]atomic.Uint32, n)
	parallel.For(n, 0, func(i int) { cluster[i].Store(graph.None) })
	// claimed[v] is set once v's cluster is final: at activation for a
	// center, in the second pass of the round that reached it otherwise.
	claimed := make([]atomic.Bool, n)

	// Exponential shifts, discretized: vertex v becomes an active center
	// at round floor(maxShift - delta_v) if still unclaimed.
	shifts := make([]int, n)
	maxShift := 0
	for v := 0; v < n; v++ {
		u := float64(hash64(seed^uint64(v))>>11) / float64(1<<53)
		if u <= 0 {
			u = 0.5
		}
		s := int(-math.Log(u) / beta)
		shifts[v] = s
		if s > maxShift {
			maxShift = s
		}
	}
	start := make([]int, n)
	for v := 0; v < n; v++ {
		start[v] = maxShift - shifts[v]
	}
	// Bucket vertices by start round.
	starters := make([][]uint32, maxShift+1)
	for v := 0; v < n; v++ {
		starters[start[v]] = append(starters[start[v]], uint32(v))
	}

	var frontier []uint32
	rounds := 0
	for t := 0; ; t++ {
		// Activate new centers whose start time arrived and that are
		// still unclaimed.
		if t <= maxShift {
			for _, v := range starters[t] {
				if !claimed[v].Load() {
					cluster[v].Store(v)
					claimed[v].Store(true)
					frontier = append(frontier, v)
				}
			}
		}
		if len(frontier) == 0 {
			if t > maxShift {
				break
			}
			continue
		}
		rounds++
		// One BFS step from the whole frontier, in two passes so that the
		// labels are a function of (graph, beta, seed) and not of the
		// schedule: first every frontier vertex write-mins its cluster into
		// each neighbor that was unclaimed when the round began (claimed is
		// only written in the second pass), then the arcs carrying the
		// settled minimum emit the neighbor, once, into the next frontier.
		offs := make([]int64, len(frontier))
		parallel.For(len(frontier), 0, func(i int) {
			offs[i] = int64(g.Degree(frontier[i]))
		})
		total := parallel.Scan(offs)
		outv := make([]uint32, total)
		parallel.For(len(frontier), 1, func(i int) {
			u := frontier[i]
			cu := cluster[u].Load()
			for _, w := range g.Neighbors(u) {
				if claimed[w].Load() {
					continue
				}
				for {
					old := cluster[w].Load()
					if cu >= old || cluster[w].CompareAndSwap(old, cu) {
						break
					}
				}
			}
		})
		parallel.For(len(frontier), 1, func(i int) {
			u := frontier[i]
			cu := cluster[u].Load()
			at := offs[i]
			for _, w := range g.Neighbors(u) {
				outv[at] = graph.None
				if cluster[w].Load() == cu && claimed[w].CompareAndSwap(false, true) {
					outv[at] = w
				}
				at++
			}
		})
		frontier = parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
	}
	labels := make([]uint32, n)
	parallel.For(n, 0, func(i int) { labels[i] = cluster[i].Load() })
	return labels, rounds
}

// Components computes connected components by iterated LDD + contraction
// (the GBBS connectivity recipe): decompose, contract each cluster to a
// single vertex, repeat on the inter-cluster graph until it has no edges,
// then propagate labels back down. Returns canonical labels (each
// component labeled by one of its member ids), the component count, and
// the total number of BFS rounds across all levels (the synchronization
// bill the harness reports).
func Components(g *graph.Graph, beta float64, seed uint64) ([]uint32, int, int) {
	if g.Directed {
		panic("ldd: Components requires an undirected graph")
	}
	n := g.N
	labels := make([]uint32, n)
	parallel.For(n, 0, func(i int) { labels[i] = uint32(i) })
	cur := g
	totalRounds := 0
	level := 0
	// map from current-graph vertex to original representative
	rep := make([]uint32, n)
	parallel.For(n, 0, func(i int) { rep[i] = uint32(i) })

	for len(cur.Edges) > 0 {
		cl, rounds := Decompose(cur, beta, seed+uint64(level)*0x9e37)
		totalRounds += rounds
		level++
		// Compact cluster ids.
		isCenter := make([]uint32, cur.N)
		parallel.ForRange(cur.N, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if cl[v] == uint32(v) {
					isCenter[v] = 1
				}
			}
		})
		newID := make([]uint32, cur.N)
		parallel.Copy(newID, isCenter)
		newN := int(parallel.Scan(newID))
		clOf := func(v uint32) uint32 { return newID[cl[v]] }
		if newN == cur.N {
			// Every cluster was a singleton (possible with unlucky
			// shifts): grow the clusters by halving beta and retry, which
			// guarantees progress as beta -> 0.
			beta /= 2
		}
		// Build the contracted inter-cluster edge list.
		var edges []graph.Edge
		for u := uint32(0); u < uint32(cur.N); u++ {
			cu := clOf(u)
			for _, w := range cur.Neighbors(u) {
				cw := clOf(w)
				if cu < cw {
					edges = append(edges, graph.Edge{U: cu, V: cw})
				}
			}
		}
		// Re-point every original vertex to its cluster's contracted id.
		parallel.For(n, 0, func(i int) {
			rep[i] = clOf(rep[i])
		})
		cur = graph.FromEdges(newN, edges, false, graph.BuildOptions{})
	}
	// cur has no edges: each remaining vertex is a component root. Label
	// original vertices by the minimum original id in their component.
	compMin := make([]uint32, cur.N)
	parallel.Fill(compMin, graph.None)
	for i := 0; i < n; i++ {
		r := rep[i]
		if compMin[r] == graph.None || uint32(i) < compMin[r] {
			compMin[r] = uint32(i)
		}
	}
	parallel.For(n, 0, func(i int) { labels[i] = compMin[rep[i]] })
	count := parallel.Count(n, func(i int) bool { return labels[i] == uint32(i) })
	return labels, count, totalRounds
}
