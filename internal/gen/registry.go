package gen

import "pasgal/internal/graph"

// Spec describes one evaluation workload: a named, seeded generator plus
// the category and directedness the paper assigns it.
type Spec struct {
	Name     string
	Category string // Social, Web, Road, kNN, Synthetic
	Directed bool
	// Paper is the real dataset this stands in for, for reports.
	Paper string
	// Build generates the graph at a size multiplier (1.0 = harness
	// default, far below the paper's billion-edge originals).
	Build func(scale float64) *graph.Graph
}

// sc scales a base size, keeping a sane floor.
func sc(base int, s float64) int {
	n := int(float64(base) * s)
	if n < 512 {
		n = 512
	}
	return n
}

// rmatScale returns the RMAT scale whose 2^scale is closest to n from
// above.
func rmatScale(n int) int {
	s := 9
	for 1<<s < n {
		s++
	}
	return s
}

// Registry returns the 22 evaluation workloads, scaled analogues of the
// paper's graphs (DESIGN.md §3), in the paper's order. All are
// deterministic in (name, scale).
func Registry() []Spec {
	return []Spec{
		// --- Social (low diameter, power law) ---
		{"LJ", "Social", true, "soc-LiveJournal1", func(s float64) *graph.Graph {
			return SocialRMAT(rmatScale(sc(32000, s)), 14, true, 101)
		}},
		{"FB", "Social", false, "socfb-konect", func(s float64) *graph.Graph {
			return SocialRMAT(rmatScale(sc(64000, s)), 3, false, 102)
		}},
		{"OK", "Social", false, "com-orkut", func(s float64) *graph.Graph {
			return SocialRMAT(rmatScale(sc(16000, s)), 24, false, 103)
		}},
		{"TW", "Social", true, "Twitter", func(s float64) *graph.Graph {
			return SocialRMAT(rmatScale(sc(32000, s)), 28, true, 104)
		}},
		{"FS", "Social", false, "Friendster", func(s float64) *graph.Graph {
			return SocialRMAT(rmatScale(sc(64000, s)), 16, false, 105)
		}},
		// --- Web (bow-tie, moderate diameter from tendrils) ---
		{"WK", "Web", true, "enwiki-2023", func(s float64) *graph.Graph {
			return WebLike(sc(48000, s), 12, 0.15, 30, 201)
		}},
		{"SD", "Web", true, "sd-arc", func(s float64) *graph.Graph {
			return WebLike(sc(90000, s), 14, 0.20, 60, 202)
		}},
		{"CW", "Web", true, "ClueWeb", func(s float64) *graph.Graph {
			return WebLike(sc(100000, s), 10, 0.30, 120, 203)
		}},
		{"HL14", "Web", true, "Hyperlink14", func(s float64) *graph.Graph {
			return WebLike(sc(120000, s), 8, 0.30, 180, 204)
		}},
		{"HL12", "Web", true, "Hyperlink12", func(s float64) *graph.Graph {
			return WebLike(sc(130000, s), 8, 0.35, 400, 205)
		}},
		// --- Road (sparse, huge diameter) ---
		{"AF", "Road", true, "OSM Africa", func(s float64) *graph.Graph {
			k := isqrt(sc(40000, s))
			return SampledGrid(k, k, 0.95, true, 301)
		}},
		{"NA", "Road", true, "OSM North America", func(s float64) *graph.Graph {
			k := isqrt(sc(90000, s))
			return SampledGrid(k, k, 0.94, true, 302)
		}},
		{"AS", "Road", true, "OSM Asia", func(s float64) *graph.Graph {
			k := isqrt(sc(100000, s))
			return SampledGrid(k*2, k/2, 0.95, true, 303)
		}},
		{"EU", "Road", true, "OSM Europe", func(s float64) *graph.Graph {
			k := isqrt(sc(130000, s))
			return SampledGrid(k, k, 0.96, true, 304)
		}},
		// --- kNN (sparse, huge diameter, clustered) ---
		{"CH5", "kNN", true, "Chem k=5", func(s float64) *graph.Graph {
			return KNN(sc(42000, s), 5, 24, true, 401)
		}},
		{"GL5", "kNN", true, "GeoLife k=5", func(s float64) *graph.Graph {
			return KNN(sc(50000, s), 5, 48, true, 402)
		}},
		{"GL10", "kNN", true, "GeoLife k=10", func(s float64) *graph.Graph {
			return KNN(sc(50000, s), 10, 48, true, 403)
		}},
		{"COS5", "kNN", true, "Cosmo50 k=5", func(s float64) *graph.Graph {
			return KNN(sc(80000, s), 5, 96, true, 404)
		}},
		// --- Synthetic ---
		{"REC", "Synthetic", true, "10^3 x 10^5 grid", func(s float64) *graph.Graph {
			n := sc(100000, s)
			rows := isqrt(n / 100)
			return Grid2D(rows, n/rows, true, 501)
		}},
		{"SREC", "Synthetic", true, "sampled REC", func(s float64) *graph.Graph {
			n := sc(100000, s)
			rows := isqrt(n / 100)
			return SampledGrid(rows, n/rows, 0.72, true, 502)
		}},
		{"TRCE", "Synthetic", false, "huge traces", func(s float64) *graph.Graph {
			k := isqrt(sc(40000, s))
			return TriGrid(k, k)
		}},
		{"BBL", "Synthetic", false, "huge bubbles", func(s float64) *graph.Graph {
			k := isqrt(sc(45000, s))
			return PerforatedGrid(k, k, 16, 6, 503)
		}},
	}
}

// LookupSpec finds a workload by name (nil if unknown).
func LookupSpec(name string) *Spec {
	for _, s := range Registry() {
		if s.Name == name {
			s := s
			return &s
		}
	}
	return nil
}

// Categories in the paper's presentation order.
func Categories() []string {
	return []string{"Social", "Web", "Road", "kNN", "Synthetic"}
}

func isqrt(n int) int {
	k := 1
	for (k+1)*(k+1) <= n {
		k++
	}
	return k
}

// PickSource returns a good BFS/SSSP source: the maximum-degree vertex,
// which sits inside the giant component on every workload in the registry.
func PickSource(g *graph.Graph) uint32 {
	best, bestDeg := uint32(0), -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(uint32(v)); d > bestDeg {
			best, bestDeg = uint32(v), d
		}
	}
	return best
}
