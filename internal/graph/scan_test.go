package graph

import (
	"slices"
	"testing"
	"unsafe"
)

// TestScannerMatchesPlain pins the one seam every kernel scans through:
// for each representation of the same arc set, ScanOut must list exactly
// the plain graph's out-neighbors (and weights) and ScanIn exactly its
// transpose's, with scratch reused across vertices the way a kernel task
// reuses it (and too small for the longer lists).
func TestScannerMatchesPlain(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			base := randomGraph(t, 90, 600, directed, weighted, true, 31)
			o := OverlayFromEdits(base,
				[]Edge{{U: 0, V: base.Neighbors(0)[0]}, {U: 5, V: 7}},
				[]Edge{{U: 0, V: 60, W: 9}, {U: 3, V: 4, W: 2}, {U: 89, V: 1, W: 5}})
			for name, rc := range map[string]struct {
				a     Adjacency
				truth *Graph
			}{
				"plain":           {base, base},
				"pz":              {Compress(base), base},
				"overlay-empty":   {EmptyOverlay(base), base},
				"overlay-patched": {o, o.Materialize()},
			} {
				for dir, sides := range map[string]struct {
					sc    *Scanner
					truth *Graph
				}{
					"out": {ScanOut(rc.a), rc.truth},
					"in":  {ScanIn(rc.a), rc.truth.Transpose()},
				} {
					nbuf, abuf, wbuf := make([]uint32, 0, 4), sides.sc.Scratch(), sides.sc.Scratch()
					for v := uint32(0); int(v) < base.N; v++ {
						want := sides.truth.Neighbors(v)
						if got := sides.sc.Neighbors(v, nbuf); !slices.Equal(got, want) {
							t.Fatalf("%s/%s directed=%v: Neighbors(%d) = %v, want %v", name, dir, directed, v, got, want)
						}
						if !weighted {
							continue
						}
						nbrs, wts := sides.sc.Arcs(v, abuf, wbuf)
						if !slices.Equal(nbrs, want) || !slices.Equal(wts, sides.truth.NeighborWeights(v)) {
							t.Fatalf("%s/%s directed=%v: Arcs(%d) = %v / %v, want %v / %v",
								name, dir, directed, v, nbrs, wts, want, sides.truth.NeighborWeights(v))
						}
					}
				}
			}
		}
	}
}

// TestScannerOwnsItsCacheLines pins the padding: the header must fill the
// 128-byte size class exactly (see the Scanner comment for what an
// unpadded one cost).
func TestScannerOwnsItsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Scanner{}); size != 128 {
		t.Fatalf("Scanner is %d bytes, want 128: adjust the padding", size)
	}
}
