package seq

import "pasgal/internal/graph"

// BCCResult describes a biconnected-component decomposition of a symmetric
// graph: a component label for every arc (both arcs of an undirected edge
// share the label), the component count, and the articulation points.
type BCCResult struct {
	NumBCC    int
	ArcLabel  []uint32 // per arc; graph.None only for graphs with no edges
	IsArtPort []bool   // articulation points ("cut vertices")
}

const noArc = ^uint64(0)

// HopcroftTarjanBCC computes biconnected components with the classic
// Hopcroft–Tarjan algorithm, implemented iteratively. g must be symmetric
// (undirected). Self-loops and parallel arcs, which graph.FromEdges keeps
// only on request, follow the rules core.BCC states:
//   - a self-loop at a DFS root (the minimum id of its component) is a
//     component of its own, one per root however many loops it has, and
//     makes the root an articulation point if the root has other edges;
//   - a self-loop anywhere else carries the label of the vertex's parent
//     edge, which is the same on every spanning tree rooted there;
//   - parallel arcs share a label.
func HopcroftTarjanBCC(g *graph.Graph) BCCResult {
	if g.Directed {
		panic("seq: HopcroftTarjanBCC requires an undirected graph")
	}
	n := g.N
	const unset = ^uint32(0)
	disc := make([]uint32, n)
	low := make([]uint32, n)
	for i := range disc {
		disc[i] = unset
	}
	label := make([]uint32, len(g.Edges))
	for i := range label {
		label[i] = graph.None
	}
	artic := make([]bool, n)
	var timer, count uint32

	type frame struct {
		v        uint32
		ei       uint64 // next arc of v to scan
		entryArc uint64 // the arc (parent(v) -> v), noArc for roots
		parentRv uint64 // the arc (v -> parent(v)), noArc for roots
		children int
	}
	frames := make([]frame, 0, 1024)

	// The edge stack carries (source, arcIndex) pairs so the reverse arc of
	// each popped arc can be labeled too.
	type sarc struct {
		src uint32
		e   uint64
	}
	sarcStack := make([]sarc, 0, 1024)

	// popComponent pops arcs up to and including entryArc (the whole stack
	// for noArc), assigning them (and their reverse arcs) a fresh
	// component label.
	popComponent := func(entryArc uint64) {
		id := count
		count++
		for len(sarcStack) > 0 {
			se := sarcStack[len(sarcStack)-1]
			sarcStack = sarcStack[:len(sarcStack)-1]
			label[se.e] = id
			if r := g.ReverseArc(se.src, se.e); r != noArc {
				label[r] = id
			}
			if se.e == entryArc {
				return
			}
		}
	}

	for s := 0; s < n; s++ {
		if disc[s] != unset {
			continue
		}
		disc[s] = timer
		low[s] = timer
		timer++
		frames = append(frames, frame{
			v: uint32(s), ei: g.Offsets[s], entryArc: noArc, parentRv: noArc,
		})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < g.Offsets[v+1] {
				e := f.ei
				f.ei++
				if e == f.parentRv {
					continue // don't traverse the edge we came in on
				}
				w := g.Edges[e]
				if w == v {
					// A self-loop: on the stack above v's entry arc, so it
					// leaves with the component of v's parent edge, or at
					// a root with the loops' own component below.
					sarcStack = append(sarcStack, sarc{v, e})
					continue
				}
				if disc[w] == unset {
					// Tree edge: push and descend.
					sarcStack = append(sarcStack, sarc{v, e})
					f.children++
					disc[w] = timer
					low[w] = timer
					timer++
					frames = append(frames, frame{
						v: w, ei: g.Offsets[w],
						entryArc: e, parentRv: g.ReverseArc(v, e),
					})
				} else if disc[w] < disc[v] {
					// Back edge toward an ancestor: push once (from the
					// deeper endpoint) and update low.
					sarcStack = append(sarcStack, sarc{v, e})
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
				// disc[w] > disc[v]: the forward view of a back edge
				// already handled from w's side; skip.
				continue
			}
			// v finished: return to parent.
			fin := *f
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				// Root: articulation iff it has >= 2 DFS children, or a
				// child and self-loops, which are all that is left on the
				// stack.
				if fin.children >= 2 || fin.children == 1 && len(sarcStack) > 0 {
					artic[fin.v] = true
				}
				if len(sarcStack) > 0 {
					popComponent(noArc)
				}
				continue
			}
			pf := &frames[len(frames)-1]
			if low[fin.v] < low[pf.v] {
				low[pf.v] = low[fin.v]
			}
			if low[fin.v] >= disc[pf.v] {
				// pf.v separates fin.v's subtree: one BCC closes here.
				popComponent(fin.entryArc)
				// A non-root parent with such a child is an articulation
				// point; roots are handled by the children count above.
				if pf.entryArc != noArc {
					artic[pf.v] = true
				}
			}
		}
	}
	// Only parallel arcs are left unlabeled. The DFS labels every copy
	// from the deeper endpoint, and the first copy from the other; the
	// first copy is what FindArc returns.
	for u := uint32(0); u < uint32(n); u++ {
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			if label[e] == graph.None {
				label[e] = label[g.FindArc(u, g.Edges[e])]
			}
		}
	}
	return BCCResult{NumBCC: int(count), ArcLabel: label, IsArtPort: artic}
}

// CountDistinctLabels returns the number of distinct BCC labels incident to
// vertex v — 2+ means v is a cut vertex (test helper / cross-check).
func CountDistinctLabels(g *graph.Graph, label []uint32, v uint32) int {
	seen := map[uint32]bool{}
	for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
		if label[e] != graph.None {
			seen[label[e]] = true
		}
	}
	return len(seen)
}
