package euler

import (
	"testing"

	"pasgal/internal/conn"
	"pasgal/internal/gen"
)

func benchForest(b *testing.B, rows, cols int) {
	g := gen.Grid2D(rows, cols, false, 1)
	tree, comp, _ := conn.SpanningForest(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g.N, tree, comp)
	}
}

func BenchmarkBuildGridTree(b *testing.B) { benchForest(b, 300, 300) }
func BenchmarkBuildWideTree(b *testing.B) { benchForest(b, 10, 9000) }
func BenchmarkBuildPathTree(b *testing.B) { benchForest(b, 1, 90000) }

// The benchmark's road-sized grid (490 000 vertices, 10⁶ arcs): the size
// at which list ranking leaves the cache.
func BenchmarkBuildGrid700(b *testing.B) { benchForest(b, 700, 700) }
