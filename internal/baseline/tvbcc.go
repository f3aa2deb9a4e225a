package baseline

import (
	"sync/atomic"

	"pasgal/internal/conn"
	"pasgal/internal/core"
	"pasgal/internal/euler"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/rmq"
)

// TarjanVishkinBCC is the classic Tarjan–Vishkin biconnectivity algorithm:
// spanning forest, Euler-tour preorder and low/high, then an *explicitly
// materialized* auxiliary graph whose nodes are the tree edges and whose
// edges encode the two TV conditions; connected components of the auxiliary
// graph are the BCCs.
//
// The auxiliary graph costs Θ(m) space on top of the input — the reason the
// paper reports Tarjan–Vishkin going out-of-memory on billion-edge graphs
// while FAST-BCC (O(n) auxiliary space) survives. AuxBytes in the returned
// metrics-side value reports the materialized size so the benchmark harness
// can chart the space blow-up.
//
// Of opt, only the ctx, tracer, and metric options apply.
func TarjanVishkinBCC(g *graph.Graph, opt core.Options) (core.BCCResult, *core.Metrics, int64, error) {
	if g.Directed {
		panic("baseline: TarjanVishkinBCC requires an undirected graph")
	}
	met := core.NewMetrics(opt, "tv-bcc")
	cl := core.NewCanceler(opt, met)
	defer cl.Close()
	n := g.N
	res := core.BCCResult{
		ArcLabel: make([]uint32, len(g.Edges)),
		IsArt:    make([]bool, n),
	}
	parallel.Fill(res.ArcLabel, graph.None)
	if n == 0 {
		return res, met, 0, cl.Poll()
	}
	tree, comp, _ := conn.SpanningForest(g)
	f := euler.Build(n, tree, comp)

	isTree := func(u, w uint32) bool {
		return f.Parent[u] == w || f.Parent[w] == u
	}

	// Phase boundary before the edge-linear low/high sweep.
	if err := cl.Poll(); err != nil {
		return core.BCCResult{}, met, 0, err
	}

	// Per-vertex local low/high in preorder position (same definitions as
	// FAST-BCC).
	localLow := make([]uint32, n)
	localHigh := make([]uint32, n)
	parallel.ForCancel(cl.Token(), n, 64, func(ui int) {
		u := uint32(ui)
		lo, hi := f.Pre[u], f.Pre[u]
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			w := g.Edges[e]
			if isTree(u, w) {
				continue
			}
			if pw := f.Pre[w]; pw < lo {
				lo = pw
			} else if pw > hi {
				hi = pw
			}
		}
		localLow[f.Pre[u]] = lo
		localHigh[f.Pre[u]] = hi
	})
	// A canceled drain above leaves localLow/localHigh zeroed; the RMQ
	// tables must not be built from them.
	if err := cl.Poll(); err != nil {
		return core.BCCResult{}, met, 0, err
	}
	lowHigh := rmq.New(localLow, localHigh)
	met.AddEdges(int64(len(g.Edges)))

	// Materialize the auxiliary edge list. Aux node of tree edge
	// (p(v), v) = v. TV conditions:
	//  (i)  non-tree {u,w}, u and w unrelated            -> aux (u, w)
	//  (ii) tree (v, p(v)), p(v) != root, subtree(v)
	//       escapes subtree(p(v))                        -> aux (v, p(v))
	auxCap := len(g.Edges)/2 + n
	aux := make([]graph.Edge, 0, auxCap)
	const tvPollStride = 1 << 16 // sequential loops: poll every 64Ki vertices
	for u := uint32(0); u < uint32(n); u++ {
		if u%tvPollStride == 0 {
			if err := cl.Poll(); err != nil {
				return core.BCCResult{}, met, 0, err
			}
		}
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			w := g.Edges[e]
			if w <= u || isTree(u, w) {
				continue
			}
			if !f.IsAncestor(u, w) && !f.IsAncestor(w, u) {
				aux = append(aux, graph.Edge{U: u, V: w})
			}
		}
	}
	for v := uint32(0); v < uint32(n); v++ {
		if v%tvPollStride == 0 {
			if err := cl.Poll(); err != nil {
				return core.BCCResult{}, met, 0, err
			}
		}
		p := f.Parent[v]
		if p == graph.None {
			continue
		}
		low, high := lowHigh.Query(int(f.First(v)), int(f.Last(v)))
		if low < f.First(p) || high > f.Last(p) {
			aux = append(aux, graph.Edge{U: v, V: p})
		}
	}
	// The Θ(m) space bill: the aux edge list plus its CSR form.
	auxGraph := graph.FromEdges(n, aux, false, graph.BuildOptions{})
	auxBytes := int64(len(aux))*12 + int64(len(auxGraph.Edges))*4 + int64(n+1)*8

	labels, _ := conn.Components(auxGraph)

	// Final phase boundary before labeling writes into res.
	if err := cl.Poll(); err != nil {
		return core.BCCResult{}, met, 0, err
	}

	// Arc labels and articulation points, as in FAST-BCC.
	parallel.For(n, 64, func(ui int) {
		u := uint32(ui)
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			w := g.Edges[e]
			switch {
			case f.Parent[w] == u:
				res.ArcLabel[e] = labels[w]
			case f.Parent[u] == w:
				res.ArcLabel[e] = labels[u]
			case f.IsAncestor(u, w):
				res.ArcLabel[e] = labels[w]
			default:
				res.ArcLabel[e] = labels[u]
			}
		}
	})
	compactBCCLabels(g, &res)
	return res, met, auxBytes, nil
}

// compactBCCLabels renumbers arc labels to [0, NumBCC) and fills IsArt.
func compactBCCLabels(g *graph.Graph, res *core.BCCResult) {
	n := g.N
	usedA := make([]atomic.Uint32, n)
	parallel.ForRange(len(res.ArcLabel), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if l := res.ArcLabel[i]; l != graph.None {
				usedA[l].Store(1)
			}
		}
	})
	used := make([]uint32, n)
	parallel.For(n, 0, func(i int) { used[i] = usedA[i].Load() })
	total := parallel.Scan(used)
	res.NumBCC = int(total)
	parallel.ForRange(len(res.ArcLabel), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if res.ArcLabel[i] != graph.None {
				res.ArcLabel[i] = used[res.ArcLabel[i]]
			}
		}
	})
	parallel.For(n, 64, func(vi int) {
		v := uint32(vi)
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		if hi-lo < 2 {
			return
		}
		first := res.ArcLabel[lo]
		for e := lo + 1; e < hi; e++ {
			if res.ArcLabel[e] != first {
				res.IsArt[v] = true
				return
			}
		}
	})
}
