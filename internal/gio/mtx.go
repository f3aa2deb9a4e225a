package gio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"pasgal/internal/graph"
)

// ReadMTX parses a MatrixMarket coordinate file as a graph: rows/columns
// are vertices (the matrix must be square), entries are edges, and the
// "symmetric" qualifier selects an undirected graph. Entry values, when
// present and integral, become edge weights; pattern matrices are
// unweighted. MatrixMarket uses 1-based indices.
func ReadMTX(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// Header: %%MatrixMarket matrix coordinate <field> <symmetry>
	if !sc.Scan() {
		return nil, fmt.Errorf("gio: empty mtx file")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" ||
		header[2] != "coordinate" {
		return nil, fmt.Errorf("gio: unsupported mtx header %q", sc.Text())
	}
	field, symmetry := header[3], header[4]
	weighted := field == "integer" || field == "real"
	directed := symmetry == "general"
	if symmetry != "general" && symmetry != "symmetric" {
		return nil, fmt.Errorf("gio: unsupported mtx symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz, size int64
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("gio: mtx line %d: size line: %w", lineNo, err)
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("gio: mtx matrix is %dx%d, need square", rows, cols)
	}
	if rows < 0 || nnz < 0 {
		return nil, fmt.Errorf("gio: mtx line %d: implausible sizes", lineNo)
	}
	if rows > maxVertexCount {
		return nil, fmt.Errorf("gio: mtx line %d: %d rows exceeds the 32-bit vertex-id limit %d",
			lineNo, rows, int64(maxVertexCount))
	}
	edges := make([]graph.Edge, 0, min(nnz, 1<<20)) // grows with the data, as ReadAdj's
	for sc.Scan() {
		lineNo++
		size += int64(len(sc.Bytes()) + 1)
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		var u, v int64
		var w float64 = 1
		var err error
		if weighted {
			_, err = fmt.Sscan(line, &u, &v, &w)
		} else {
			_, err = fmt.Sscan(line, &u, &v)
		}
		if err != nil {
			return nil, fmt.Errorf("gio: mtx line %d: entry %q: %w", lineNo, line, err)
		}
		if u < 1 || u > rows || v < 1 || v > rows {
			return nil, fmt.Errorf("gio: mtx line %d: entry (%d,%d) out of range", lineNo, u, v)
		}
		if w > maxEdgeWeight {
			return nil, fmt.Errorf("gio: mtx line %d: weight %g exceeds the 32-bit limit %d",
				lineNo, w, int64(maxEdgeWeight))
		}
		wt := uint32(w)
		if w < 0 {
			wt = 0
		}
		edges = append(edges, graph.Edge{U: uint32(u - 1), V: uint32(v - 1), W: wt})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if int64(len(edges)) != nnz {
		return nil, fmt.Errorf("gio: mtx has %d entries, header says %d", len(edges), nnz)
	}
	if err := checkImplied(rows, size); err != nil {
		return nil, err
	}
	return graph.FromEdges(int(rows), edges, directed,
		graph.BuildOptions{Weighted: weighted}), nil
}

// WriteMTX writes g as a MatrixMarket coordinate file (pattern or integer
// field; general or symmetric depending on g.Directed).
func WriteMTX(w io.Writer, g *graph.Graph) error {
	if g.N > maxVertexCount {
		// The old uint32 loop bound silently wrapped here, emitting a
		// truncated file; same failure class the readers guard against.
		return fmt.Errorf("gio: n = %d exceeds the 32-bit vertex-id limit %d",
			g.N, uint64(maxVertexCount))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	field := "pattern"
	if g.Weighted() {
		field = "integer"
	}
	symmetry := "general"
	if !g.Directed {
		symmetry = "symmetric"
	}
	nnz := len(g.Edges)
	if !g.Directed {
		nnz /= 2
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s %s\n%d %d %d\n",
		field, symmetry, g.N, g.N, nnz); err != nil {
		return err
	}
	for ui := 0; ui < g.N; ui++ {
		u := uint32(ui)
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			v := g.Edges[e]
			if !g.Directed && v < u {
				continue
			}
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", u+1, v+1, g.Weights[e])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u+1, v+1)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
