package gio

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// TestTextReadersRejectOutOfRange pins the 32-bit boundary behavior of the
// text readers: vertex counts, vertex ids, and weights that do not fit the
// uint32 storage must produce line-numbered errors, never silent
// truncation (which previously aliased distinct vertices and wrapped
// weights). A vertex or entry count the input does not pay for is an error
// too, not an allocation sized by a header or by an edge list's largest id.
func TestTextReadersRejectOutOfRange(t *testing.T) {
	cases := []struct {
		name    string
		read    func(string) error
		input   string
		wantSub string // substring the error must contain ("" = any error)
	}{
		{
			"dimacs n over 2^32-1",
			readDIMACSErr,
			"p sp 4294967296 1\na 1 2 7\n",
			"line 1",
		},
		{
			"dimacs weight over 2^32-1",
			readDIMACSErr,
			"p sp 4 1\na 1 2 4294967296\n",
			"line 2",
		},
		{
			"dimacs weight at limit ok",
			readDIMACSErr,
			"p sp 4 1\na 1 2 4294967295\n",
			"OK",
		},
		{
			"mtx rows over 2^32-1",
			readMTXErr,
			"%%MatrixMarket matrix coordinate pattern general\n4294967296 4294967296 1\n1 2\n",
			"line 2",
		},
		{
			"mtx weight over 2^32-1",
			readMTXErr,
			"%%MatrixMarket matrix coordinate integer general\n4 4 1\n1 2 4294967296\n",
			"line 3",
		},
		{
			"mtx weight at limit ok",
			readMTXErr,
			"%%MatrixMarket matrix coordinate integer general\n4 4 1\n1 2 4294967295\n",
			"OK",
		},
		{
			"edgelist id at None sentinel",
			readELErr,
			"0 4294967295\n",
			"line 1",
		},
		{
			"edgelist id over 2^32-1",
			readELErr,
			"2 4294967296\n",
			"line 1",
		},
		{
			"edgelist weight over 2^32-1",
			readELErr,
			"# c\n0 1 4294967296\n",
			"line 2",
		},
		{
			"edgelist weight at limit ok",
			readELErr,
			"0 1 4294967295\n",
			"OK",
		},
		// Counts the input does not pay for (checkImplied); the first is
		// the input FuzzReadEdgeList found.
		{"edgelist id far past the input", readELErr, "4294937296 1\n", "bytes of input"},
		{"edgelist id within the allowance", readELErr, "0 1048576\n", "OK"},
		{"dimacs n far past the input", readDIMACSErr, "p sp 4294967295 0\n", "bytes of input"},
		{"dimacs n within the allowance", readDIMACSErr, "p sp 1048576 0\n", "OK"},
		{"mtx rows far past the input", readMTXErr,
			"%%MatrixMarket matrix coordinate pattern general\n4294967295 4294967295 0\n", "bytes of input"},
		{"mtx nnz far past the input", readMTXErr,
			"%%MatrixMarket matrix coordinate pattern general\n2 2 4398046511104\n", "header says"},
	}
	for _, tc := range cases {
		err := tc.read(tc.input)
		if tc.wantSub == "OK" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func readDIMACSErr(in string) error {
	_, err := ReadDIMACS(strings.NewReader(in))
	return err
}

func readMTXErr(in string) error {
	_, err := ReadMTX(strings.NewReader(in))
	return err
}

func readELErr(in string) error {
	_, err := ReadEdgeList(strings.NewReader(in), -1, true)
	return err
}

// failingWriter errors after allowing n bytes through — exercising every
// writer's error-propagation branches.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.remaining {
		w.remaining -= len(p)
		return len(p), nil
	}
	n := w.remaining
	w.remaining = 0
	return n, errors.New("disk full")
}

func TestWritersPropagateErrors(t *testing.T) {
	g := gen.AddUniformWeights(gen.Grid2D(20, 20, false, 1), 1, 9, 2)
	writers := map[string]func(*failingWriter) error{
		"adj":    func(w *failingWriter) error { return WriteAdj(w, g) },
		"bin":    func(w *failingWriter) error { return WriteBin(w, g) },
		"mtx":    func(w *failingWriter) error { return WriteMTX(w, g) },
		"el":     func(w *failingWriter) error { return WriteEdgeList(w, g) },
		"dimacs": func(w *failingWriter) error { return WriteDIMACS(w, g) },
	}
	// Fail at several cut points: header, mid-array, near the end — scaled
	// to each format's actual encoded size.
	for name, write := range writers {
		full := &captureWriter{}
		switch name {
		case "adj":
			_ = WriteAdj(full, g)
		case "bin":
			_ = WriteBin(full, g)
		case "mtx":
			_ = WriteMTX(full, g)
		case "el":
			_ = WriteEdgeList(full, g)
		case "dimacs":
			_ = WriteDIMACS(full, g)
		}
		size := len(full.buf)
		for _, allow := range []int{0, 10, size / 2, size - 1} {
			if err := write(&failingWriter{remaining: allow}); err == nil {
				t.Fatalf("%s: expected error with %d-byte budget (full size %d)",
					name, allow, size)
			}
		}
	}
}

func TestFileHelperErrors(t *testing.T) {
	g := gen.Grid2D(4, 4, false, 1)
	for name, fn := range map[string]func() error{
		"adj write": func() error { return WriteAdjFile("/nonexistent-dir/x.adj", g) },
		"bin write": func() error { return WriteBinFile("/nonexistent-dir/x.bin", g) },
	} {
		if fn() == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := ReadAdjFile("/nonexistent-dir/x.adj", false); err == nil {
		t.Fatal("adj read: expected error")
	}
	if _, err := ReadBinFile("/nonexistent-dir/x.bin"); err == nil {
		t.Fatal("bin read: expected error")
	}
	// Reading a directory as a graph errors too.
	dir := t.TempDir()
	if _, err := ReadBinFile(dir); err == nil {
		t.Fatal("reading a directory should fail")
	}
}

func TestReadBinTruncation(t *testing.T) {
	// A valid header followed by truncated arrays must error, not hang or
	// over-allocate.
	g := gen.Grid2D(30, 30, false, 1)
	var full []byte
	{
		w := &captureWriter{}
		if err := WriteBin(w, g); err != nil {
			t.Fatal(err)
		}
		full = w.buf
	}
	for _, cut := range []int{8, 30, 33, len(full) / 2, len(full) - 1} {
		if _, err := readBinBytes(full[:cut]); err == nil {
			t.Fatalf("expected error at cut %d", cut)
		}
	}
	if _, err := readBinBytes(full); err != nil {
		t.Fatalf("full data should parse: %v", err)
	}
}

type captureWriter struct{ buf []byte }

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func readBinBytes(b []byte) (any, error) {
	g, err := ReadBin(&sliceReader{b: b})
	return g, err
}

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errors.New("EOF")
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestWritersRejectOversizedN pins the writer half of the 32-bit boundary:
// the text writers used to drive their vertex loops with a uint32 bound,
// so a graph with more than 2^32-1 vertices wrapped the loop and produced
// a silently truncated file. The guard must fire before any output. The
// fake graph never has its arrays touched — the guard is checked first.
func TestWritersRejectOversizedN(t *testing.T) {
	huge := &graph.Graph{
		N:        math.MaxUint32 + 1,
		Offsets:  []uint64{0},
		Weights:  []uint32{}, // non-nil: Weighted() is true for WriteDIMACS
		Directed: true,
	}
	for name, write := range map[string]func() error{
		"el":     func() error { return WriteEdgeList(&captureWriter{}, huge) },
		"dimacs": func() error { return WriteDIMACS(&captureWriter{}, huge) },
		"mtx":    func() error { return WriteMTX(&captureWriter{}, huge) },
	} {
		err := write()
		if err == nil {
			t.Fatalf("%s: oversized graph written without error", name)
		}
		if !strings.Contains(err.Error(), "32-bit vertex-id limit") {
			t.Fatalf("%s: error %q does not name the limit", name, err)
		}
	}
}

// TestReadAdjRejectsOutOfRange extends the 32-bit boundary suite to the
// .adj reader: a vertex count past the id limit and a weight past uint32
// must error instead of aliasing through the casts.
func TestReadAdjRejectsOutOfRange(t *testing.T) {
	if _, err := ReadAdj(strings.NewReader("AdjacencyGraph\n4294967296\n0\n"), true); err == nil ||
		!strings.Contains(err.Error(), "32-bit vertex-id limit") {
		t.Fatalf("oversized n: got %v", err)
	}
	if _, err := ReadAdj(strings.NewReader("WeightedAdjacencyGraph\n1\n1\n0\n0\n4294967296\n"), true); err == nil ||
		!strings.Contains(err.Error(), "32-bit limit") {
		t.Fatalf("oversized weight: got %v", err)
	}
	// At the limit both parse.
	if _, err := ReadAdj(strings.NewReader("WeightedAdjacencyGraph\n1\n1\n0\n0\n4294967295\n"), true); err != nil {
		t.Fatalf("weight at limit rejected: %v", err)
	}
}
