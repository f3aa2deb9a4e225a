package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pasgal/internal/gzb"
	"pasgal/internal/parallel"
)

// Compressed is the byte-compressed CSR representation: every vertex's
// sorted adjacency list is difference-encoded into varints (see package
// gzb), and an (n+1)-entry byte-offset array — the per-vertex restart
// points — locates each list, so scans decode lists independently and
// in parallel. On the power-law graphs the library targets this costs
// roughly half the bytes of plain CSR (less after degree-ordered
// relabeling, see RelabelByDegree) at a modest decode cost per scanned
// arc, and the two flat arrays map 1:1 onto the on-disk .pz layout so a
// file can be mmap'd straight into a usable graph.
//
// A Compressed is immutable after construction, like Graph, and safe
// for concurrent readers; the lazy transpose cached under trOnce
// depends on that immutability (a mutated payload would leave an
// already-built transpose describing a graph that no longer exists —
// mutation must go through internal/delta, which never touches a
// published representation). Instances backed by an mmap'd file are
// only valid until the mapping is closed (see gio.MapPZFile).
type Compressed struct {
	n        int
	m        int
	directed bool
	weighted bool
	voff     []uint64 // n+1 byte offsets into data; voff[v]:voff[v+1] is v's list
	data     []byte

	trOnce sync.Once
	tr     *Compressed // cached transpose, built once under trOnce
}

// Compress encodes g into the compressed representation. The encoding
// is exact: Decompress returns a graph with identical arrays.
func Compress(g *Graph) *Compressed {
	n := g.N
	sizes := make([]int64, n+1)
	weighted := g.Weighted()
	parallel.For(n, 64, func(v int) {
		var wts []uint32
		if weighted {
			wts = g.NeighborWeights(uint32(v))
		}
		sizes[v] = int64(gzb.EncodedListSize(uint32(v), g.Neighbors(uint32(v)), wts))
	})
	total := parallel.Scan(sizes[:n])
	voff := make([]uint64, n+1)
	parallel.For(n, 0, func(v int) { voff[v] = uint64(sizes[v]) })
	voff[n] = uint64(total)
	data := make([]byte, total)
	parallel.For(n, 64, func(v int) {
		lo, hi := voff[v], voff[v+1]
		var wts []uint32
		if weighted {
			wts = g.NeighborWeights(uint32(v))
		}
		// Append into the exact sub-slice; a size mismatch would make
		// append silently reallocate and drop the bytes, so trap it.
		out := gzb.AppendList(data[lo:lo:hi], uint32(v), g.Neighbors(uint32(v)), wts)
		if uint64(len(out)) != hi-lo {
			panic("graph: compressed list size mismatch")
		}
	})
	return &Compressed{
		n:        n,
		m:        len(g.Edges),
		directed: g.Directed,
		weighted: weighted,
		voff:     voff,
		data:     data,
	}
}

// NewCompressed assembles a Compressed from its stored parts (the .pz
// reader's entry point). It performs the O(n) structural checks — voff
// monotone, anchored at 0, and ending exactly at len(data) — but does
// not decode the payload; call Validate for the O(m) full check.
func NewCompressed(n, m int, directed, weighted bool, voff []uint64, data []byte) (*Compressed, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative dimensions (n=%d, m=%d)", n, m)
	}
	if len(voff) != n+1 {
		return nil, fmt.Errorf("graph: offset array has %d entries, want n+1 = %d", len(voff), n+1)
	}
	if n > 0 && voff[0] != 0 {
		return nil, fmt.Errorf("graph: first list starts at byte %d, want 0", voff[0])
	}
	for v := 0; v < n; v++ {
		if voff[v] > voff[v+1] {
			return nil, fmt.Errorf("graph: offsets decrease at vertex %d (%d > %d)", v, voff[v], voff[v+1])
		}
	}
	if n > 0 && voff[n] != uint64(len(data)) {
		return nil, fmt.Errorf("graph: offsets end at byte %d, data has %d bytes", voff[n], len(data))
	}
	return &Compressed{n: n, m: m, directed: directed, weighted: weighted, voff: voff, data: data}, nil
}

// NumVertices implements Adjacency.
func (c *Compressed) NumVertices() int { return c.n }

// NumArcs implements Adjacency.
func (c *Compressed) NumArcs() int { return c.m }

// IsDirected implements Adjacency.
func (c *Compressed) IsDirected() bool { return c.directed }

// HasWeights implements Adjacency.
func (c *Compressed) HasWeights() bool { return c.weighted }

// DegreeOf implements Adjacency: one varint decode at v's restart point.
func (c *Compressed) DegreeOf(v uint32) int {
	deg, _ := gzb.DecodeDegree(c.data[c.voff[v]:])
	return int(deg)
}

func (c *Compressed) sealed() {}

// VOff exposes the per-vertex byte-offset array for serialization.
// Callers must not modify it.
func (c *Compressed) VOff() []uint64 { return c.voff }

// Data exposes the encoded adjacency bytes for serialization. Callers
// must not modify them.
func (c *Compressed) Data() []byte { return c.data }

// BytesPerArc reports the storage cost of the representation in bytes
// per stored arc: encoded payload plus the restart-point array. It is
// the number the compress benchmark compares against plain CSR's
// (8(n+1) + 4m [+ 4m weighted]) / m.
func (c *Compressed) BytesPerArc() float64 {
	if c.m == 0 {
		return 0
	}
	return float64(len(c.data)+8*len(c.voff)) / float64(c.m)
}

func (c *Compressed) String() string {
	kind := "undirected"
	m := c.m / 2
	if c.directed {
		kind = "directed"
		m = c.m
	}
	w := ""
	if c.weighted {
		w = " weighted"
	}
	return fmt.Sprintf("compressed %s%s graph: n=%d m=%d (%.2f B/arc)", kind, w, c.n, m, c.BytesPerArc())
}

// listBytes returns the encoded list of v.
func (c *Compressed) listBytes(v uint32) []byte {
	return c.data[c.voff[v]:c.voff[v+1]]
}

// AppendNeighbors appends v's neighbors to buf (usually buf[:0] of a
// reused scratch slice) and returns the extended slice. This is the
// bulk decode behind Scanner: decode once into scratch, then run the
// same tight loop as plain CSR over the result.
func (c *Compressed) AppendNeighbors(v uint32, buf []uint32) []uint32 {
	nbrs, _ := gzb.DecodeList(c.listBytes(v), v, c.weighted, buf, nil)
	return nbrs
}

// AppendArcs appends v's neighbors and weights to the two scratch
// slices and returns both extended. It panics on unweighted graphs.
func (c *Compressed) AppendArcs(v uint32, nbrs, wts []uint32) ([]uint32, []uint32) {
	if !c.weighted {
		panic("graph: AppendArcs on an unweighted compressed graph")
	}
	if wts == nil {
		wts = make([]uint32, 0, len(nbrs))
	}
	return gzb.DecodeList(c.listBytes(v), v, true, nbrs, wts)
}

// Decompress expands c back into a plain CSR graph.
func (c *Compressed) Decompress() *Graph {
	n := c.n
	g := &Graph{
		N:        n,
		Offsets:  make([]uint64, n+1),
		Edges:    make([]uint32, c.m),
		Directed: c.directed,
	}
	parallel.For(n, 64, func(v int) { g.Offsets[v] = uint64(c.DegreeOf(uint32(v))) })
	if total := parallel.Scan(g.Offsets[:n]); total != uint64(c.m) {
		panic(fmt.Sprintf("graph: compressed degrees sum to %d, header says %d arcs", total, c.m))
	}
	g.Offsets[n] = uint64(c.m)
	if c.weighted {
		g.Weights = make([]uint32, c.m)
	}
	parallel.For(n, 64, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		var wb []uint32
		if c.weighted {
			wb = g.Weights[lo:lo:hi]
		}
		gzb.DecodeList(c.listBytes(uint32(v)), uint32(v), c.weighted, g.Edges[lo:lo:hi], wb)
	})
	return g
}

// Transpose returns the compressed reverse graph, built lazily on first
// use (decompress → transpose → recompress) and cached. Undirected
// graphs are their own transpose. Kernels running push-only routes on
// directed graphs never trigger the build — important for mmap-backed
// graphs, where the transpose is a fresh in-memory allocation, not part
// of the mapping.
func (c *Compressed) Transpose() *Compressed {
	if !c.directed {
		return c
	}
	c.trOnce.Do(func() {
		tr := Compress(c.Decompress().Transpose())
		tr.trOnce.Do(func() { tr.tr = c })
		c.tr = tr
	})
	return c.tr
}

// Validate decodes and checks every list against the untrusted-input
// rules (each varint terminates in its list, neighbors in range and
// sorted, lists sized exactly) plus the cross-list invariants: degrees
// sum to the stored arc count. Errors name the vertex and the absolute
// byte offset of the corruption inside the payload. The per-list checks
// run in parallel; the first failing vertex (lowest id) wins.
func (c *Compressed) Validate() error {
	if c.n < 0 || c.m < 0 {
		return fmt.Errorf("graph: negative dimensions (n=%d, m=%d)", c.n, c.m)
	}
	if len(c.voff) != c.n+1 {
		return fmt.Errorf("graph: offset array has %d entries, want n+1 = %d", len(c.voff), c.n+1)
	}
	if c.n == 0 {
		if c.m != 0 || len(c.data) != 0 {
			return fmt.Errorf("graph: empty graph with %d arcs, %d bytes", c.m, len(c.data))
		}
		return nil
	}
	if c.voff[0] != 0 || c.voff[c.n] != uint64(len(c.data)) {
		return fmt.Errorf("graph: offsets span [%d, %d], data has %d bytes", c.voff[0], c.voff[c.n], len(c.data))
	}
	var firstBad atomic.Int64
	firstBad.Store(int64(c.n))
	var arcs atomic.Int64
	parallel.ForRange(c.n, 256, func(lo, hi int) {
		var local int64
		for v := lo; v < hi; v++ {
			if c.voff[v] > c.voff[v+1] {
				for {
					cur := firstBad.Load()
					if int64(v) >= cur || firstBad.CompareAndSwap(cur, int64(v)) {
						break
					}
				}
				return
			}
			deg, err := gzb.CheckList(c.listBytes(uint32(v)), uint32(v), uint32(c.n), c.weighted)
			if err != nil {
				for {
					cur := firstBad.Load()
					if int64(v) >= cur || firstBad.CompareAndSwap(cur, int64(v)) {
						break
					}
				}
				return
			}
			local += int64(deg)
		}
		arcs.Add(local)
	})
	if bad := firstBad.Load(); bad < int64(c.n) {
		v := uint32(bad)
		if c.voff[v] > c.voff[v+1] {
			return fmt.Errorf("graph: offsets decrease at vertex %d (%d > %d)", v, c.voff[v], c.voff[v+1])
		}
		_, err := gzb.CheckList(c.listBytes(v), v, uint32(c.n), c.weighted)
		return fmt.Errorf("graph: vertex %d (list at byte %d): %w", v, c.voff[v], err)
	}
	if got := arcs.Load(); got != int64(c.m) {
		return fmt.Errorf("graph: degrees sum to %d, header says %d arcs", got, c.m)
	}
	return nil
}
