package core

import (
	"time"

	"pasgal/internal/conn"
	"pasgal/internal/euler"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/rmq"
)

// BCCResult is a biconnectivity decomposition: a BCC label per arc (both
// arcs of an undirected edge agree), the component count, and articulation
// points. It matches seq.BCCResult's semantics so the two are directly
// comparable.
type BCCResult struct {
	NumBCC   int
	ArcLabel []uint32
	IsArt    []bool
}

// BCC computes biconnected components with the FAST-BCC algorithm (Dong et
// al.), which avoids BFS entirely:
//
//  1. spanning forest by parallel union–find (internal/conn);
//  2. Euler tour + list ranking roots the forest and yields preorder
//     numbers and subtree sizes (internal/euler);
//  3. low/high: the min/max preorder reachable from each subtree through a
//     non-tree edge, via O(n)-space blocked range-min over preorder-ordered
//     per-vertex aggregates (internal/rmq);
//  4. a tree edge (p(v), v) is a *fence* iff v's subtree never escapes the
//     preorder interval of its parent p(v) — fence edges separate BCCs
//     (escaping only as far as p(v) itself still fences: p(v) is the
//     component head, not part of the cluster);
//  5. connectivity over the skeleton: non-fence tree edges plus non-tree
//     edges between *unrelated* vertices (back edges to ancestors
//     contribute through the low/high values instead, exactly as in
//     Tarjan–Vishkin's auxiliary-graph conditions), sampled as
//     conn.SpanningForest samples the graph. The BCC of tree edge
//     (p(v), v) is v's skeleton component; a non-tree edge belongs to the
//     component of its deeper endpoint.
//
// Work O(n+m), polylogarithmic span, O(n) auxiliary space — no Θ(D)
// synchronization chains and no Θ(m) auxiliary graph, the two failure modes
// of GBBS-style and Tarjan–Vishkin-style biconnectivity respectively.
// The arcs are swept twice (labelFromForest), so Metrics.EdgesVisited is
// 2·len(g.Edges), not counting the skeleton remainder's reads; Rounds
// stays 0 and each stage is one Metrics phase — forest, euler, sweep,
// fence (with the skeleton's remainder pass), label — whose trace detail
// is its wall time in microseconds.
// A non-nil opt.Ctx makes the run cancellable: on cancellation BCC
// returns (zero BCCResult, partial Metrics, ErrCanceled/ErrDeadline).
func BCC(g *graph.Graph, opt Options) (BCCResult, *Metrics, error) {
	if g.Directed {
		panic("core: BCC requires an undirected graph (symmetrize first)")
	}
	opt = opt.Normalized()
	return bccRun(g, opt, func(st *stageClock) *euler.Forest {
		// (1) + (2): rooted spanning forest, no BFS.
		tree, comp, _ := conn.SpanningForest(g)
		st.done()
		f := euler.Build(g.N, tree, comp)
		st.done()
		return f
	})
}

// BCCFromForest runs FAST-BCC's labeling stages (low/high, fence
// classification, skeleton connectivity) on top of an already-rooted
// spanning forest of g. The GBBS-style baseline uses it with a BFS-built
// forest; BCC itself uses a union-find forest. The forest must span g.
// opt contributes the cancellation context (opt.Ctx) and the per-stage
// trace (opt.Tracer); the labeling stages have no VGC/frontier tunables.
func BCCFromForest(g *graph.Graph, f *euler.Forest, opt Options) (BCCResult, *Metrics, error) {
	return bccRun(g, opt, func(*stageClock) *euler.Forest { return f })
}

// stageClock reports each finished BCC stage as one Metrics phase.
type stageClock struct {
	met  *Metrics
	last time.Time
}

func (st *stageClock) done() {
	now := time.Now()
	st.met.addPhase(now.Sub(st.last).Microseconds())
	st.last = now
}

// bccRun is the shared body of BCC and BCCFromForest: result allocation,
// the empty graph, cancellation, and the labeling stages on the forest
// that forest() supplies.
func bccRun(g *graph.Graph, opt Options, forest func(*stageClock) *euler.Forest) (BCCResult, *Metrics, error) {
	met := NewMetrics(opt, "bcc")
	cl := NewCanceler(opt, met)
	defer cl.Close()
	res := BCCResult{
		ArcLabel: make([]uint32, len(g.Edges)),
		IsArt:    make([]bool, g.N),
	}
	if g.N == 0 {
		return res, met, cl.Poll()
	}
	if err := cl.Poll(); err != nil {
		return BCCResult{}, met, err
	}
	st := &stageClock{met: met, last: time.Now()}
	if err := labelFromForest(g, forest(st), &res, st, cl); err != nil {
		return BCCResult{}, met, err
	}
	return res, met, nil
}

// vertexRec is everything the arc sweeps need to know about an arc's far
// endpoint, in one 16-byte record: an arc costs one random cache line
// instead of one each in Parent, Pre and Size.
type vertexRec struct {
	pre, last uint32 // preorder interval of the vertex's subtree
	parent    uint32
	label     uint32 // skeleton component, compacted in the label stage
}

// above reports whether a's subtree contains the vertex with preorder pre.
func (a *vertexRec) above(pre uint32) bool { return a.pre <= pre && pre <= a.last }

// unrelated reports whether neither of a and b is an ancestor of the other.
func unrelated(a, b *vertexRec) bool { return !a.above(b.pre) && !b.above(a.pre) }

// labelFromForest runs stages (3)-(5) plus label compaction, polling cl
// at every stage boundary (each stage is a handful of flat parallel
// passes; the passes themselves drain through cl's token). Two of the
// passes are over all arcs: the sweep before the fence test and the sweep
// that writes the result. The skeleton's remainder pass reads the arcs of
// the vertices outside its largest set only.
//
// The skeleton's unrelated edges are united the way conn.SpanningForest
// unites the graph's: the sweep links at most conn.LinkK unrelated arcs
// per vertex, and after the fence test adds the non-fence tree edges, the
// remainder pass scans the other unrelated arcs of only those vertices
// that are not in the set of the sample's plurality root r. No skeleton
// edge is lost: sets only merge, so if an unrelated edge {u, w} is skipped
// by both endpoints, each endpoint was in r's set when it was checked, and
// u and w are connected anyway.
func labelFromForest(g *graph.Graph, f *euler.Forest, res *BCCResult, st *stageClock, cl *Canceler) error {
	n := g.N
	rec := make([]vertexRec, n)
	parallel.For(n, 0, func(v int) {
		rec[v] = vertexRec{pre: f.Pre[v], last: f.Last(uint32(v)), parent: f.Parent[v]}
	})

	// (3) per-vertex local aggregates in preorder position: the vertex's
	// own preorder plus the preorders of its non-tree neighbors. The same
	// sweep links the vertex's first unrelated non-tree edges into the
	// skeleton (5); they do not depend on the fence test. Ancestor back
	// edges are accounted for by low/high instead.
	uf := conn.NewUnionFind(n)
	localLow := make([]uint32, n)
	localHigh := make([]uint32, n)
	parallel.ForCancel(cl.Token(), n, 64, func(ui int) {
		u := uint32(ui)
		ru := rec[u]
		lo, hi := ru.pre, ru.pre
		linked := 0
		for _, w := range g.Edges[g.Offsets[u]:g.Offsets[u+1]] {
			rw := &rec[w]
			if rw.parent == u || ru.parent == w {
				continue // an arc that realizes a parent/child relation
			}
			lo, hi = min(lo, rw.pre), max(hi, rw.pre)
			if linked < conn.LinkK && unrelated(&ru, rw) {
				uf.Union(u, w)
				linked++
			}
		}
		localLow[ru.pre] = lo
		localHigh[ru.pre] = hi
	})
	st.met.AddEdges(int64(len(g.Edges)))
	if err := cl.Poll(); err != nil {
		return err
	}
	lowHigh := rmq.New(localLow, localHigh)
	st.done()

	// (4) fence test per non-root vertex, against the parent's interval;
	// a tree edge that is not a fence joins the skeleton (5).
	parallel.ForCancel(cl.Token(), n, 256, func(vi int) {
		v := uint32(vi)
		rv := rec[v]
		if rv.parent == graph.None {
			return
		}
		rp := &rec[rv.parent]
		low, high := lowHigh.Query(int(rv.pre), int(rv.last))
		if low < rp.pre || high > rp.last {
			uf.Union(v, rv.parent)
		}
	})
	if err := cl.Poll(); err != nil {
		return err
	}

	// (5) the remainder: the unrelated arcs the sweep did not link, of the
	// vertices outside the plurality root's set.
	r := uf.PluralityRoot()
	parallel.ForRangeCancel(cl.Token(), n, 64, func(lo, hi int) {
		giant := uf.Find(r) // r may have been linked under a smaller root since
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			if uf.Find(u) == giant {
				continue
			}
			ru := rec[u]
			linked := 0
			for _, w := range g.Edges[g.Offsets[u]:g.Offsets[u+1]] {
				rw := &rec[w]
				if rw.parent == u || ru.parent == w || !unrelated(&ru, rw) {
					continue
				}
				if linked++; linked > conn.LinkK { // the sweep linked the first LinkK
					uf.Union(u, w)
				}
			}
		}
	})
	if err := cl.Poll(); err != nil {
		return err
	}
	st.done()

	// Labels: tree arc (p(v), v) -> skeleton component of v; non-tree arc
	// -> skeleton component of its deeper endpoint (for unrelated
	// endpoints the components coincide). So every arc carries the label
	// of one of its endpoints, and labels are found, marked used and
	// compacted to [0, NumBCC) per vertex, not per arc. A component id is
	// its skeleton root r, and it is in use iff r itself carries an arc
	// with it: a non-root vertex does (its parent edge). A forest root is
	// alone in its skeleton component — every child edge of a root is a
	// fence, no vertex is unrelated to it — so its id is in use only by
	// its own self-loops.
	used := make([]uint32, n)
	parallel.ForCancel(cl.Token(), n, 0, func(vi int) {
		v := uint32(vi)
		l := uf.Find(v)
		rec[v].label = l
		if l == v && (rec[v].parent != graph.None || hasSelfLoop(g, v)) {
			used[v] = 1
		}
	})
	if err := cl.Poll(); err != nil {
		return err
	}
	res.NumBCC = int(parallel.Scan(used)) // exclusive: used[r] = compact id of r
	parallel.For(n, 0, func(v int) { rec[v].label = used[rec[v].label] })

	// The result sweep: every arc label written once, and u is an
	// articulation point iff its arcs carry two distinct labels.
	parallel.ForCancel(cl.Token(), n, 64, func(ui int) {
		u := uint32(ui)
		ru := rec[u]
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for e := lo; e < hi; e++ {
			l := ru.label
			if rw := &rec[g.Edges[e]]; ru.above(rw.pre) { // u above w: w's side owns the edge
				l = rw.label
			}
			res.ArcLabel[e] = l
			if l != res.ArcLabel[lo] {
				res.IsArt[u] = true
			}
		}
	})
	st.met.AddEdges(int64(len(g.Edges)))
	st.done()
	return cl.Poll()
}

// hasSelfLoop reports whether v is its own neighbor.
func hasSelfLoop(g *graph.Graph, v uint32) bool {
	for _, w := range g.Edges[g.Offsets[v]:g.Offsets[v+1]] {
		if w == v {
			return true
		}
	}
	return false
}
