package core

import "pasgal/internal/graph"

// PointToPoint computes the shortest-path distance from src to dst on a
// weighted graph — one of the extensions the paper's conclusion names
// ("point-to-point shortest paths"). It is the stepping framework with
// goal-directed pruning: once a distance to dst is known, relaxations at
// or above it cannot lie on a better src→dst path (weights are
// non-negative) and are skipped, and the search stops as soon as every
// active vertex is at least as far as the best dst distance.
//
// Returns InfWeight if dst is unreachable from src.
//
// Every graph.Adjacency representation is accepted as long as it carries
// weights; like SSSP, the frontier processor ranges over graph.Scanner's
// arc lists. An endpoint at or past the vertex count is an error.
//
// A non-nil opt.Ctx makes the run cancellable: on cancellation it returns
// (InfWeight, partial Metrics, ErrCanceled/ErrDeadline).
func PointToPoint(a graph.Adjacency, src, dst uint32, policy StepPolicy, opt Options) (uint64, *Metrics, error) {
	if !a.HasWeights() {
		panic("core: PointToPoint requires a weighted graph")
	}
	if err := checkVertex("destination", dst, a.NumVertices()); err != nil {
		return InfWeight, NewMetrics(opt, "ptp"), err
	}
	dist, met, err := stepping("ptp", a, src, dst, policy, opt)
	if err != nil {
		return InfWeight, met, err
	}
	return dist[dst].Load(), met, nil
}
