package gio

import (
	"bytes"
	"strings"
	"testing"

	"pasgal/internal/gen"
)

// The fuzz targets assert the readers never panic and that anything they
// accept round-trips through the writers. Run with `go test -fuzz` for
// real fuzzing; under plain `go test` they exercise the seed corpus.

func FuzzReadAdj(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteAdj(&seed, gen.Grid2D(4, 4, false, 1))
	f.Add(seed.String())
	f.Add("AdjacencyGraph\n2\n1\n0\n1\n1\n")
	f.Add("WeightedAdjacencyGraph\n1\n0\n0\n")
	f.Add("AdjacencyGraph\n-1\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadAdj(strings.NewReader(in), false)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteAdj(&buf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		again, err := ReadAdj(&buf, false)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if !graphsEqual(g, again) {
			t.Fatal("accepted graph does not round-trip")
		}
	})
}

func FuzzReadBin(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBin(&seed, gen.SocialRMAT(5, 2, true, 1))
	f.Add(seed.Bytes())
	f.Add([]byte("PASGAL01"))
	f.Add([]byte("PASGAL01\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, in []byte) {
		// Huge claimed sizes must fail fast, not OOM: cap the input-driven
		// allocation by rejecting absurd headers relative to input length.
		g, err := ReadBin(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("0 1 5\n# c\n")
	f.Add("x y\n")
	// 32-bit boundary seeds: ids/weights at and past the uint32 limits.
	f.Add("0 4294967295\n")
	f.Add("4294967296 1\n")
	f.Add("0 1 4294967296\n")
	f.Add("0 1 4294967295\n")
	// A legal id far past what the input pays for: n = max id + 1 must be
	// refused, not turned into a 4.3-billion-vertex CSR.
	f.Add("4294937296 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in), -1, true)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}

func FuzzReadDIMACS(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteDIMACS(&seed, gen.AddUniformWeights(gen.Grid2D(3, 3, false, 1), 1, 9, 2))
	f.Add(seed.String())
	f.Add("c x\np sp 2 1\na 1 2 7\n")
	// 32-bit boundary seeds.
	f.Add("p sp 4294967296 1\na 1 2 7\n")
	f.Add("p sp 2 1\na 1 2 4294967296\n")
	f.Add("p sp 2 1\na 1 2 4294967295\n")
	// Sizes far past what the input pays for.
	f.Add("p sp 4294967295 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}

func FuzzReadMTX(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteMTX(&seed, gen.Grid2D(3, 3, false, 1))
	f.Add(seed.String())
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
	// 32-bit boundary seeds.
	f.Add("%%MatrixMarket matrix coordinate pattern general\n4294967296 4294967296 1\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n3 3 1\n1 2 4294967296\n")
	// Sizes far past what the input pays for.
	f.Add("%%MatrixMarket matrix coordinate pattern general\n4294967295 4294967295 0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 4398046511104\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMTX(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}
