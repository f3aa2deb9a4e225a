// Package pasgal is a Go implementation of PASGAL — the Parallel And
// Scalable Graph Algorithm Library (Dong, Gu, Sun, Wang; SPAA 2024) — a
// shared-memory parallel graph library designed to stay fast on
// large-diameter graphs, where conventional level-synchronous systems pay a
// global synchronization per hop and can lose to sequential code.
//
// The library's core technique is vertical granularity control (VGC):
// frontier vertices are processed by bounded multi-hop local searches that
// amortize scheduling overhead and grow frontiers quickly, backed by
// frontiers that every worker fills through lists of its own (each insert
// has one owner, so none needs the paper's concurrent hash bag). On top
// of these it provides:
//
//   - BFS   — VGC label-correcting BFS with distance-bucketed frontiers and
//     direction optimization;
//   - SCC   — multi-pivot forward/backward reachability with subproblem
//     refinement and trimming;
//   - BCC   — the FAST-BCC algorithm (spanning forest + Euler tour +
//     skeleton connectivity; O(n+m) work, O(n) auxiliary space, no BFS);
//   - SSSP  — the stepping-algorithm framework (ρ-stepping, Δ-stepping,
//     Bellman–Ford) with VGC relaxation.
//
// Every algorithm returns machine-independent Metrics (rounds = global
// synchronizations, edges visited, frontier sizes) alongside its result.
// Graphs are CSR (see Graph); deterministic seeded generators for the
// paper's 22 evaluation workloads live behind the Generate* functions, and
// LoadGraph/SaveGraph speak the PBBS .adj, binary .bin, and edge-list
// formats.
package pasgal

import (
	"pasgal/internal/conn"
	"pasgal/internal/core"
	"pasgal/internal/graph"
	"pasgal/internal/msbfs"
	"pasgal/internal/parallel"
	"pasgal/internal/seq"
)

// SetWorkers overrides the worker-team size used by every parallel loop in
// the library (default: GOMAXPROCS). p < 1 resets to the default. Returns
// the previous value. Used by the scaling experiments; most callers should
// leave it alone.
func SetWorkers(p int) int { return parallel.SetWorkers(p) }

// Workers returns the current worker-team size.
func Workers() int { return parallel.Workers() }

// Graph is a compressed-sparse-row graph. See internal/graph for methods:
// Degree, Neighbors, Transpose, Symmetrized, Validate, ...
type Graph = graph.Graph

// Adjacency is the read seam the traversal kernels accept: a plain *Graph,
// a *CompressedGraph, or an epoch snapshot of a mutable store. Each kernel
// has one body over per-vertex neighbor lists (graph.Scanner); the
// interface carries only per-call metadata, never per-edge dispatch.
type Adjacency = graph.Adjacency

// CompressedGraph is the difference-encoded byte-varint CSR representation:
// 3-5x smaller than plain CSR on social/web graphs, traversable in place by
// every Adjacency-accepting algorithm, and mappable straight from a .pz
// file (see MapCompressed). See docs/STORAGE.md.
type CompressedGraph = graph.Compressed

// Edge is an edge (or arc) with an optional weight.
type Edge = graph.Edge

// BuildOptions controls NewGraph.
type BuildOptions = graph.BuildOptions

// Stats is the Table 1-style summary produced by ComputeStats.
type Stats = graph.Stats

// Options tunes the PASGAL algorithms; the zero value selects defaults
// (τ = 512, per-worker frontier lists, direction optimization on).
type Options = core.Options

// Metrics reports the cost profile of a run: rounds (global
// synchronizations), edges visited, frontier sizes.
type Metrics = core.Metrics

// BCCResult is a biconnectivity decomposition.
type BCCResult = core.BCCResult

// StepPolicy selects SSSP thresholds; see RhoStepping, DeltaStepping,
// BellmanFordPolicy.
type StepPolicy = core.StepPolicy

// Live is the live far set as StepPolicy.Threshold sees it: its size, the
// min and max of a stride sample of at most 1 024 of its distances, and a
// Quantile that sorts that sample on its first call only.
type Live = core.Live

// LastPhase is the previous stepping phase as StepPolicy.Threshold sees it:
// its θ band width and the frontier entries it extracted.
type LastPhase = core.LastPhase

// RhoStepping processes the ~ρ closest active vertices per phase (PASGAL's
// default SSSP policy): θ is the ρ-quantile of the active distances (the
// sampled maximum, with no sort, when ρ >= |live|), capped at the nearest
// one plus a band width that doubles after a phase that extracted fewer
// than ρ/2 entries and halves after one that extracted more than 2ρ.
// Rho <= 0 selects ρ = 2^14.
type RhoStepping = core.RhoStepping

// DeltaStepping processes fixed-width distance bands.
type DeltaStepping = core.DeltaStepping

// BellmanFordPolicy processes every active vertex every phase.
type BellmanFordPolicy = core.BellmanFordPolicy

// ErrCanceled is returned by every algorithm when Options.Ctx is canceled
// before the run converges. The Metrics returned alongside it describe the
// partial run; the result values are zero.
var ErrCanceled = core.ErrCanceled

// ErrDeadline is returned by every algorithm when Options.Ctx's deadline
// passes before the run converges.
var ErrDeadline = core.ErrDeadline

const (
	// None is the "no vertex" sentinel.
	None = graph.None
	// InfDist marks unreachable vertices in BFS output.
	InfDist = graph.InfDist
	// InfWeight marks unreachable vertices in SSSP output.
	InfWeight = core.InfWeight
)

// NewGraph builds a CSR graph from an edge list in parallel. Self loops are
// dropped and duplicate edges merged (see BuildOptions to override).
func NewGraph(n int, edges []Edge, directed bool, opt BuildOptions) *Graph {
	return graph.FromEdges(n, edges, directed, opt)
}

// CompressGraph difference-encodes g into the compact byte-varint
// representation, in parallel. The result serves every Adjacency-accepting
// algorithm directly; use its Decompress method to get the plain CSR back.
func CompressGraph(g *Graph) *CompressedGraph {
	return graph.Compress(g)
}

// RelabelByDegree renumbers g's vertices in nonincreasing degree order
// (ties by original id) and returns the relabeled graph plus the
// permutation (perm[old] = new). Degree ordering clusters the high-degree
// hubs at small ids, which shrinks the compressed encoding of power-law
// graphs — apply it before CompressGraph when the vertex numbering is not
// itself meaningful.
func RelabelByDegree(g *Graph) (*Graph, []uint32) {
	return graph.RelabelByDegree(g)
}

// BFS returns hop distances from src (InfDist when unreachable) using
// PASGAL's vertical-granularity-control BFS. With Options.Ctx set, a
// canceled or expired context stops the run early with ErrCanceled or
// ErrDeadline and partial Metrics (never a partial result).
func BFS(g Adjacency, src uint32, opt Options) ([]uint32, *Metrics, error) {
	return core.BFS(g, src, opt)
}

// BFSTree returns hop distances and a BFS-tree parent per reached vertex
// (None for the source and unreached vertices). It runs BFS, then picks for
// each reached vertex an in-neighbor one hop closer to the source, so the
// tree is consistent with the distances; on a directed graph that pass
// builds the transpose even when direction optimization is off.
func BFSTree(g Adjacency, src uint32, opt Options) (dist, parent []uint32, met *Metrics, err error) {
	return core.BFSTree(g, src, opt)
}

// SCC returns, for a directed graph, a strongly-connected-component label
// per vertex (the id of a representative member) and the component count.
func SCC(g Adjacency, opt Options) ([]uint32, int, *Metrics, error) {
	return core.SCC(g, opt)
}

// BCC returns the biconnected components of an undirected graph using
// FAST-BCC: a label per arc, the component count, and articulation points.
// Symmetrize directed graphs first (g.Symmetrized()).
func BCC(g *Graph, opt Options) (BCCResult, *Metrics, error) {
	return core.BCC(g, opt)
}

// SSSP returns shortest-path distances from src on a weighted graph using
// the stepping framework. policy == nil selects ρ-stepping defaults.
func SSSP(g Adjacency, src uint32, policy StepPolicy, opt Options) ([]uint64, *Metrics, error) {
	return core.SSSP(g, src, policy, opt)
}

// SSSPTree returns shortest-path distances and a shortest-path tree
// (parent per reached vertex; None for src and unreachable vertices).
// Use PathTo to reconstruct routes.
func SSSPTree(g Adjacency, src uint32, policy StepPolicy, opt Options) (dist []uint64, parent []uint32, met *Metrics, err error) {
	return core.SSSPTree(g, src, policy, opt)
}

// PathTo reconstructs the root-to-v path from a parent array produced by
// SSSPTree or BFSTree (nil if v is unreachable).
func PathTo(parent []uint32, root, v uint32) []uint32 {
	return core.PathTo(parent, root, v)
}

// KCore returns the coreness of every vertex and the degeneracy, by
// parallel peeling with VGC (one of the paper's named extensions). A
// directed graph is peeled as g.Symmetrized(), without building it.
func KCore(g Adjacency, opt Options) ([]uint32, int, *Metrics, error) {
	return core.KCore(g, opt)
}

// PointToPoint returns the shortest-path distance from src to dst on a
// weighted graph (InfWeight if unreachable), using the stepping framework
// with goal-directed pruning (one of the paper's named extensions).
// policy == nil selects ρ-stepping defaults.
func PointToPoint(g Adjacency, src, dst uint32, policy StepPolicy, opt Options) (uint64, *Metrics, error) {
	return core.PointToPoint(g, src, dst, policy, opt)
}

// BatchedBFS runs one BFS per source simultaneously through the batched
// multi-source (MS-BFS) lane engine and returns one hop-distance row per
// source (InfDist marks unreachable vertices) — the same rows a loop over
// BFS would produce, but sharing each edge scan across up to 64 sources.
// This is the high-throughput query path; see docs/BATCHED.md. Duplicate
// sources are allowed; an out-of-range source id is an error.
func BatchedBFS(g Adjacency, sources []uint32, opt Options) ([][]uint32, *Metrics, error) {
	return msbfs.Run(g, sources, opt)
}

// BatchedReachable runs one reachability search per source through the
// MS-BFS lane engine: row i marks every vertex reachable from sources[i].
// Unlike Reachable (which unions its sources into one search), each source
// gets its own row.
func BatchedReachable(g Adjacency, sources []uint32, opt Options) ([][]bool, *Metrics, error) {
	return msbfs.RunReachable(g, sources, opt)
}

// BatchedPointToPoint answers a batch of (src, dst) hop-distance queries
// through the MS-BFS lane engine: result i is the edge count of a shortest
// path for pairs[i] (InfDist when unreachable). A lane stops spreading
// once its destination settles, and each 64-lane group stops as soon as
// every lane is done.
func BatchedPointToPoint(g Adjacency, pairs [][2]uint32, opt Options) ([]uint32, *Metrics, error) {
	return msbfs.RunPointToPoint(g, pairs, opt)
}

// Coalescer batches concurrent single-source BFS requests against one
// graph into shared MS-BFS lane groups; see msbfs.Coalescer.
type Coalescer = msbfs.Coalescer

// CoalescerOptions configures a Coalescer: the options its batch runs
// use and the gate each batch acquires before it is taken.
type CoalescerOptions = msbfs.CoalescerOptions

// NewCoalescer returns a batching front door for BFS queries against g.
// Submit queues one source and blocks until its distance row is ready;
// requests that queue while a batch waits for the gate or runs share the
// next batch's edge scans.
func NewCoalescer(g Adjacency, opts CoalescerOptions) *Coalescer {
	return msbfs.NewCoalescer(g, opts)
}

// SequentialKCore is the Matula–Beck bucket algorithm, the sequential
// k-core baseline.
func SequentialKCore(g *Graph) ([]uint32, int) { return seq.KCore(g) }

// Reachable marks every vertex reachable from any source, using the
// paper's order-relaxed VGC reachability search.
func Reachable(g Adjacency, srcs []uint32, opt Options) ([]bool, *Metrics, error) {
	return core.Reachable(g, srcs, opt)
}

// ConnectedComponents labels the connected components of an undirected
// graph (labels are component-minimum vertex ids) using BFS-free parallel
// union–find, and returns the component count. Symmetrize directed graphs
// first.
func ConnectedComponents(g Adjacency) ([]uint32, int) {
	return conn.Components(g)
}

// SpanningForest returns a spanning forest of an undirected graph (one
// edge list; n - #components edges), the component labeling, and the
// component count.
func SpanningForest(g Adjacency) ([]Edge, []uint32, int) {
	return conn.SpanningForest(g)
}

// InducedSubgraph returns the subgraph of g induced by verts plus the
// original-id mapping.
func InducedSubgraph(g *Graph, verts []uint32) (*Graph, []uint32) {
	return graph.InducedSubgraph(g, verts)
}

// LargestComponent returns the subgraph induced by g's largest (weakly)
// connected component plus the original-id mapping.
func LargestComponent(g *Graph) (*Graph, []uint32) {
	return graph.LargestComponent(g)
}

// DegreeHistogram returns counts[d] = number of vertices with out-degree d.
func DegreeHistogram(g *Graph) []int64 { return graph.DegreeHistogram(g) }

// Bridges flags the bridge edges of an undirected graph (per arc; both
// arcs of a bridge are flagged) and returns the bridge count — a direct
// corollary of FAST-BCC (a bridge is a single-edge biconnected component).
func Bridges(g *Graph, opt Options) ([]bool, int, *Metrics, error) {
	return core.Bridges(g, opt)
}

// DensestSubgraph returns Charikar's peeling 2-approximation of the
// maximum-density subgraph, computed from the VGC k-core decomposition:
// the vertex set, its density (edges/vertices), and metrics. A directed
// graph is measured as g.Symmetrized(), as KCore peels it.
func DensestSubgraph(g Adjacency, opt Options) ([]uint32, float64, *Metrics, error) {
	return core.DensestSubgraph(g, opt)
}

// SequentialBFS is the queue-based sequential baseline (the "*" column of
// the paper's BFS table).
func SequentialBFS(g *Graph, src uint32) []uint32 { return seq.BFS(g, src) }

// SequentialSCC is Tarjan's algorithm, the sequential SCC baseline.
func SequentialSCC(g *Graph) ([]uint32, int) { return seq.TarjanSCC(g) }

// SequentialBCC is the Hopcroft–Tarjan algorithm, the sequential BCC
// baseline. Its result type is convertible to BCCResult field-by-field.
func SequentialBCC(g *Graph) BCCResult {
	r := seq.HopcroftTarjanBCC(g)
	return BCCResult{NumBCC: r.NumBCC, ArcLabel: r.ArcLabel, IsArt: r.IsArtPort}
}

// SequentialSSSP is Dijkstra's algorithm, the sequential SSSP baseline.
func SequentialSSSP(g *Graph, src uint32) []uint64 { return seq.Dijkstra(g, src) }

// ComputeStats gathers the paper's Table 1 row for g: n, m, m', and sampled
// diameter lower bounds. diamSamples <= 0 skips diameter estimation.
func ComputeStats(g *Graph, diamSamples int, seed uint64) Stats {
	return graph.ComputeStats(g, diamSamples, seed)
}

// EstimateDiameter returns a sampled double-sweep BFS diameter lower bound.
func EstimateDiameter(g *Graph, samples int, seed uint64) int {
	return graph.EstimateDiameter(g, samples, seed)
}
