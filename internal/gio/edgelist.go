package gio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"pasgal/internal/graph"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" or "u v w"
// per line; lines starting with '#' or '%' are comments). n < 0 infers the
// vertex count as max id + 1, bounded by the input's size (checkImplied).
func ReadEdgeList(r io.Reader, n int, directed bool) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	weighted := false
	maxID := uint32(0)
	lineNo, size := 0, int64(0)
	for sc.Scan() {
		lineNo++
		size += int64(len(sc.Bytes()) + 1)
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("gio: line %d: need at least 2 fields", lineNo)
		}
		var u, v, w uint64
		if _, err := fmt.Sscan(f[0], &u); err != nil {
			return nil, fmt.Errorf("gio: line %d: %w", lineNo, err)
		}
		if _, err := fmt.Sscan(f[1], &v); err != nil {
			return nil, fmt.Errorf("gio: line %d: %w", lineNo, err)
		}
		if len(f) >= 3 {
			if _, err := fmt.Sscan(f[2], &w); err != nil {
				return nil, fmt.Errorf("gio: line %d: %w", lineNo, err)
			}
			weighted = true
		}
		// Ids MaxUint32 and above collide with the graph.None sentinel (and
		// would push n past the 32-bit limit); weights are stored as uint32.
		if u >= maxVertexCount || v >= maxVertexCount {
			return nil, fmt.Errorf("gio: line %d: vertex id %d exceeds the 32-bit limit %d",
				lineNo, max(u, v), uint64(maxVertexCount-1))
		}
		if w > maxEdgeWeight {
			return nil, fmt.Errorf("gio: line %d: weight %d exceeds the 32-bit limit %d",
				lineNo, w, uint64(maxEdgeWeight))
		}
		e := graph.Edge{U: uint32(u), V: uint32(v), W: uint32(w)}
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		if len(edges) == 0 {
			n = 0
		} else {
			n = int(maxID) + 1
		}
		if err := checkImplied(int64(n), size); err != nil {
			return nil, err
		}
	}
	return graph.FromEdges(n, edges, directed, graph.BuildOptions{Weighted: weighted}), nil
}

// WriteEdgeList writes each arc once as "u v" (or "u v w"), in CSR order.
// For symmetric graphs each undirected edge is written once (u < v).
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	if g.N > maxVertexCount {
		// The old uint32 loop bound silently wrapped here, emitting a
		// truncated file; same failure class the readers guard against.
		return fmt.Errorf("gio: n = %d exceeds the 32-bit vertex-id limit %d",
			g.N, uint64(maxVertexCount))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	for ui := 0; ui < g.N; ui++ {
		u := uint32(ui)
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			v := g.Edges[e]
			if !g.Directed && v < u {
				continue
			}
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", u, v, g.Weights[e])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
