package graph

// Adjacency is the representation seam between the plain CSR Graph, the
// byte-compressed Compressed variant, and the patched Overlay: the
// read-only facts every consumer needs about a graph, however it is
// stored. The one per-representation decision on the kernels' hot path —
// how a vertex's neighbor list is produced — is not a method of this
// interface but the concrete Scanner (scan.go), built once per run by
// ScanOut/ScanIn, the only code that switches on the concrete type; the
// unexported marker method seals the interface so that switch is
// exhaustive. Every kernel keeps one round body and ranges over the slice
// a Scanner hands back.
//
// Why that shape, each alternative measured on this repository (go1.24.0,
// 2 cores; DESIGN.md §2.9 has the cells):
//
//   - A neighbor-list method on this interface, or any per-arc cursor, puts
//     a dynamic call per vertex (per arc) into the plain-CSR loop. The
//     Scanner's plain case is instead a slice expression inlined into the
//     kernel behind one never-changing branch; against the hand-copied
//     plain-CSR bodies it replaced, BFS and SSSP on the road and social
//     graphs moved by less than their run-to-run spread.
//   - Generics over per-representation scanner types do not buy a
//     monomorphic loop: pointer type arguments share one gcshape, and a
//     value-type argument does get its own instantiation, but a method
//     call on the type parameter still goes through the dictionary
//     (`CALL R10` in the instantiated body) and is never inlined.
//   - For an early-exit pull over a Compressed list, decoding the whole
//     list and scanning the flat result beat a streaming per-arc cursor in
//     BFS (1.7x -> 1.35x of plain) and was indistinguishable from it in
//     64-lane MS-BFS, so the cursor is gone and both pulls bulk-decode.
//
// Every implementation is immutable once published: that is what makes
// lock-free concurrent queries, the lazy transpose caches, and epoch
// snapshots sound. Mutation happens elsewhere — internal/delta layers
// Overlay patches over an untouched base and compaction installs a
// brand-new Graph.
type Adjacency interface {
	// NumVertices returns the vertex count n.
	NumVertices() int
	// NumArcs returns the stored arc count (each undirected edge counts
	// twice).
	NumArcs() int
	// IsDirected reports whether arcs are one-directional.
	IsDirected() bool
	// HasWeights reports whether arcs carry weights.
	HasWeights() bool
	// DegreeOf returns the out-degree of v. Plain CSR answers from the
	// offset array; the compressed form decodes one varint.
	DegreeOf(v uint32) int

	// sealed restricts implementations to this package: ScanOut/ScanIn
	// switch over exactly {*Graph, *Compressed, *Overlay, *uniform}.
	sealed()
}

// NumVertices implements Adjacency.
func (g *Graph) NumVertices() int { return g.N }

// NumArcs implements Adjacency.
func (g *Graph) NumArcs() int { return len(g.Edges) }

// IsDirected implements Adjacency.
func (g *Graph) IsDirected() bool { return g.Directed }

// HasWeights implements Adjacency.
func (g *Graph) HasWeights() bool { return g.Weighted() }

// DegreeOf implements Adjacency.
func (g *Graph) DegreeOf(v uint32) int { return g.Degree(v) }

func (g *Graph) sealed() {}

var (
	_ Adjacency = (*Graph)(nil)
	_ Adjacency = (*Compressed)(nil)
	_ Adjacency = (*Overlay)(nil)
)
