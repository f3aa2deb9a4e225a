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
// reuses it (and too small for the longer lists). Under UniformWeights an
// unweighted representation's Arcs must carry UniformWeight of each arc,
// for a power-of-two span and an odd one; a weighted one is returned as is.
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
				for _, hi := range []uint32{0, 1 << 8, 1000} { // 0: stored weights only
					a := rc.a
					if hi != 0 {
						if a = UniformWeights(rc.a, 1, hi, 7); weighted && a != rc.a {
							t.Fatalf("%s: UniformWeights wrapped a weighted graph", name)
						}
					}
					for dir, sides := range map[string]struct {
						sc    *Scanner
						truth *Graph
					}{
						"out": {ScanOut(a), rc.truth},
						"in":  {ScanIn(a), rc.truth.Transpose()},
					} {
						nbuf, abuf, wbuf := make([]uint32, 0, 4), make([]uint32, 0, 4), make([]uint32, 0, 4)
						for v := uint32(0); int(v) < base.N; v++ {
							want := sides.truth.Neighbors(v)
							if got := sides.sc.Neighbors(v, nbuf); !slices.Equal(got, want) {
								t.Fatalf("%s/%s directed=%v hi=%d: Neighbors(%d) = %v, want %v", name, dir, directed, hi, v, got, want)
							}
							var wantW []uint32
							switch {
							case weighted:
								wantW = sides.truth.NeighborWeights(v)
							case hi == 0:
								continue
							default:
								for _, x := range want {
									wantW = append(wantW, UniformWeight(v, x, 1, hi, 7))
								}
							}
							nbrs, wts := sides.sc.Arcs(v, abuf, wbuf)
							if !slices.Equal(nbrs, want) || !slices.Equal(wts, wantW) {
								t.Fatalf("%s/%s directed=%v hi=%d: Arcs(%d) = %v / %v, want %v / %v",
									name, dir, directed, hi, v, nbrs, wts, want, wantW)
							}
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
