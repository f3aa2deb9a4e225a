package baseline

import (
	"sync/atomic"

	"pasgal/internal/core"
	"pasgal/internal/euler"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// GBBSBCC models GBBS-style biconnectivity: the spanning forest is built
// with level-synchronous parallel BFS (one global round per hop, Θ(D)
// synchronizations on a diameter-D component — the bottleneck the paper
// attributes to GBBS), after which the labeling stages are shared with
// FAST-BCC. Components are processed one BFS at a time, as a BFS-based
// system must.
//
// Of opt, only the ctx, tracer, and metric options apply.
func GBBSBCC(g *graph.Graph, opt core.Options) (core.BCCResult, *core.Metrics, error) {
	if g.Directed {
		panic("baseline: GBBSBCC requires an undirected graph")
	}
	met := core.NewMetrics(opt, "gbbs-bcc")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	if n == 0 {
		res, _, err := core.BCCFromForest(g, euler.Build(0, nil, nil), opt)
		if perr := cl.Poll(); perr != nil {
			err = perr
		}
		return res, met, err
	}

	// BFS spanning forest.
	parent := make([]atomic.Uint32, n)
	parallel.For(n, 0, func(i int) { parent[i].Store(graph.None) })
	comp := make([]uint32, n) // each vertex's BFS start, the minimum id of its tree; None until reached
	parallel.Fill(comp, graph.None)
	var tree []graph.Edge
	for start := 0; start < n; start++ {
		if comp[start] != graph.None {
			continue
		}
		comp[start] = uint32(start)
		if g.Degree(uint32(start)) == 0 {
			continue // isolated vertex: no tree edges, no BFS to run
		}
		frontier := []uint32{uint32(start)}
		for len(frontier) > 0 {
			// Round boundary: a canceled round invalidates the tree-edge
			// accumulation below (drained chunks claim no parents).
			if err := cl.Poll(); err != nil {
				return core.BCCResult{}, met, err
			}
			met.Round(len(frontier))
			offs := make([]int64, len(frontier))
			parallel.For(len(frontier), 0, func(i int) {
				offs[i] = int64(g.Degree(frontier[i]))
			})
			total := parallel.Scan(offs)
			met.AddEdges(total)
			outv := make([]uint32, total)
			parallel.ForCancel(cl.Token(), len(frontier), 1, func(i int) {
				u := frontier[i]
				at := offs[i]
				for _, w := range g.Neighbors(u) {
					outv[at] = graph.None
					if parent[w].Load() == graph.None && w != uint32(start) &&
						parent[w].CompareAndSwap(graph.None, u) {
						outv[at] = w
					}
					at++
				}
			})
			next := parallel.Pack(outv, func(i int) bool { return outv[i] != graph.None })
			for _, v := range next {
				comp[v] = uint32(start)
				tree = append(tree, graph.Edge{U: parent[v].Load(), V: v})
			}
			frontier = next
		}
	}

	// Final check before the labeling stages: a canceled drain above would
	// have produced a truncated forest.
	if err := cl.Poll(); err != nil {
		return core.BCCResult{}, met, err
	}
	f := euler.Build(n, tree, comp)
	res, met2, err := core.BCCFromForest(g, f, opt)
	if err != nil {
		return core.BCCResult{}, met, err
	}
	met.AddEdges(met2.EdgesVisited)
	return res, met, nil
}
