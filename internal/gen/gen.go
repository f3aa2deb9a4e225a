// Package gen provides deterministic, seeded graph generators. They stand
// in for the 22 public datasets the paper evaluates (social, web, road,
// k-NN, and synthetic graphs up to 226B edges), which are not available in
// this environment: each generator reproduces the structural property the
// paper keys on — primarily the diameter class and the degree profile — at
// a configurable scale. See DESIGN.md §3 for the mapping.
//
// All generators are deterministic functions of their parameters and seed:
// randomness is derived by hashing (seed, index), so results are identical
// regardless of the parallel schedule.
package gen

import (
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
)

// hash64 is the splitmix64 finalizer used for index-addressable randomness.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rnd returns a uniform uint64 for (seed, i, j).
func rnd(seed, i, j uint64) uint64 {
	return hash64(seed ^ hash64(i+0x632be59bd9b4e019) ^ hash64(j+0xd1b54a32d192ed03))
}

// rndFloat returns a uniform float64 in [0,1) for (seed, i, j).
func rndFloat(seed, i, j uint64) float64 {
	return float64(rnd(seed, i, j)>>11) / float64(1<<53)
}

// AddUniformWeights returns a copy of g whose arc (u, v) stores
// graph.UniformWeight(u, v, lo, hi, seed), as graph.UniformWeights scans it.
func AddUniformWeights(g *graph.Graph, lo, hi uint32, seed uint64) *graph.Graph {
	if hi < lo {
		panic("gen: AddUniformWeights with hi < lo")
	}
	w := make([]uint32, len(g.Edges))
	parallel.For(g.N, 64, func(u int) {
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			w[e] = graph.UniformWeight(uint32(u), g.Edges[e], lo, hi, seed)
		}
	})
	return &graph.Graph{
		N: g.N, Offsets: g.Offsets, Edges: g.Edges,
		Weights: w, Directed: g.Directed,
	}
}
