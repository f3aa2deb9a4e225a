package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pasgal"
	"pasgal/internal/delta"
	"pasgal/internal/gio"
	"pasgal/internal/graph"
	"pasgal/internal/gzb"
	"pasgal/internal/hashbag"
	"pasgal/internal/msbfs"
	"pasgal/internal/parallel"
	"pasgal/internal/serve"
)

// The layer sheet: one cell per layer, measured from outside by timing
// calls into the layer's public functions on the workload's own graph.
// Every traced run fills the whole sheet, so a change to one layer can be
// read against the same cell on the graph class where it should move an
// end-to-end metric and on the class where it should not.

// sheetInput is the workload's graph in the forms the cells need.
type sheetInput struct {
	p         *prepared
	g, wg     *graph.Graph
	sym       *graph.Graph
	or        *oracle // seqMs for bfs, sssp, scc, bcc
	daemonRSS float64 // 0 when the workload ran no daemon
}

// Cell repetition counts: enough for a median, small enough that the
// sheet stays near ten seconds on the larger graph.
const (
	launchReps   = 4000 // loop launches per timed batch
	launchRounds = 5
	bagItems     = 1 << 20 // ids inserted into the hash bag (ISSUE 11)
	cellReps     = 3       // repetitions of a cell that takes 10–500 ms
	snapshotReps = 100000
	handlerReps  = 7
	cacheHitReps = 50
)

// timeReps runs f reps times and returns each duration in milliseconds.
func timeReps(reps int, f func()) []float64 {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		out = append(out, msSince(t))
	}
	return out
}

func sheet(e *env, res *result, in *sheetInput) error {
	g := in.g
	m := float64(g.NumArcs())
	src := in.p.pool[0]
	nsPerArc := func(ms []float64, arcs float64) float64 { return median(ms) * 1e6 / arcs }

	// parallel: the fixed cost of a loop launch and of a binary fork.
	var launch, do []float64
	for r := 0; r < launchRounds; r++ {
		t := time.Now()
		for i := 0; i < launchReps; i++ {
			parallel.ForRange(256, 16, func(lo, hi int) {})
		}
		launch = append(launch, float64(time.Since(t).Nanoseconds())/launchReps)
		t = time.Now()
		for i := 0; i < launchReps; i++ {
			parallel.Do(func() {}, func() {})
		}
		do = append(do, float64(time.Since(t).Nanoseconds())/launchReps)
	}
	res.add("parallel.launch_ns", "ns", median(launch), launchRounds)
	res.add("parallel.do_ns", "ns", median(do), launchRounds)

	// hashbag: concurrent insert of distinct ids, then one extract.
	var ins, ext []float64
	for r := 0; r < cellReps; r++ {
		bag := hashbag.New(0)
		t := time.Now()
		parallel.For(bagItems, 0, func(i int) { bag.Insert(uint32(i)) })
		ins = append(ins, float64(time.Since(t).Nanoseconds())/bagItems)
		t = time.Now()
		items := bag.Extract()
		ext = append(ext, float64(time.Since(t).Nanoseconds())/float64(len(items)))
	}
	res.add("hashbag.insert_ns", "ns", median(ins), cellReps)
	res.add("hashbag.extract_ns_per_item", "ns", median(ext), cellReps)

	// graph, plain CSR: a full push-style scan, and a pull-style scan over
	// the transpose that stops at the first neighbour in a 1-in-8 set.
	sink := make([]uint64, g.N)
	res.add("graph.scan_plain_ns_per_arc", "ns", nsPerArc(timeReps(cellReps, func() {
		parallel.ForRange(g.N, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				var s uint64
				for _, u := range g.Neighbors(uint32(v)) {
					s += uint64(u)
				}
				sink[v] = s
			}
		})
	}), m), cellReps)
	tr := g.Transpose()
	var pulled float64
	pullMs := timeReps(cellReps, func() {
		parallel.ForRange(g.N, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				var seen uint64
				for _, u := range tr.Neighbors(uint32(v)) {
					seen++
					if splitmix64(uint64(u))&7 == 0 {
						break
					}
				}
				sink[v] = seen
			}
		})
	})
	for _, s := range sink {
		pulled += float64(s)
	}
	res.add("graph.pull_plain_ns_per_arc", "ns", nsPerArc(pullMs, pulled), cellReps)

	// graph, compressed: build, scan through the bulk decoder, the codec
	// alone on one thread, and the lazy transpose a directed mmap graph
	// pays on its first bottom-up round.
	var c *graph.Compressed
	res.add("graph.compress_ns_per_arc", "ns", nsPerArc(timeReps(cellReps, func() { c = graph.Compress(g) }), m), cellReps)
	res.add("graph.scan_pz_ns_per_arc", "ns", nsPerArc(timeReps(cellReps, func() {
		parallel.ForRange(g.N, 0, func(lo, hi int) {
			var buf []uint32
			for v := lo; v < hi; v++ {
				buf = c.AppendNeighbors(uint32(v), buf[:0])
				var s uint64
				for _, u := range buf {
					s += uint64(u)
				}
				sink[v] = s
			}
		})
	}), m), cellReps)
	data, voff := c.Data(), c.VOff()
	res.add("gzb.decode_ns_per_arc", "ns", nsPerArc(timeReps(cellReps, func() {
		var buf []uint32
		for v := 0; v < g.N; v++ {
			buf, _ = gzb.DecodeList(data[voff[v]:voff[v+1]], uint32(v), false, buf[:0], nil)
		}
	}), m), cellReps)
	res.add("graph.pz_bytes_per_arc", "B", c.BytesPerArc(), 1)
	res.add("graph.pz_transpose_ms", "ms", median(timeReps(1, func() { c.Transpose() })), 1)

	// graph construction: FromEdges from the arc list, and the transpose
	// of the freshly built graph (it is cached after its first use).
	edges := arcsOf(g)
	var fromEdges, transpose []float64
	for r := 0; r < cellReps; r++ {
		var built *graph.Graph
		fromEdges = append(fromEdges, timeReps(1, func() { built = graph.FromEdges(g.N, edges, true, graph.BuildOptions{}) })...)
		transpose = append(transpose, timeReps(1, func() { built.Transpose() })...)
	}
	edges = nil
	res.add("graph.from_edges_ns_per_arc", "ns", nsPerArc(fromEdges, m), cellReps)
	res.add("graph.transpose_ns_per_arc", "ns", nsPerArc(transpose, m), cellReps)

	// gio: the three ways a graph file becomes a graph.
	var ioErr error
	keep := func(err error) {
		if ioErr == nil {
			ioErr = err
		}
	}
	res.add("gio.read_bin_ms", "ms", median(timeReps(cellReps, func() {
		_, err := gio.ReadBinFile(in.p.binPath)
		keep(err)
	})), cellReps)
	res.add("gio.read_pz_ms", "ms", median(timeReps(cellReps, func() {
		_, err := gio.ReadPZFile(in.p.pzPath)
		keep(err)
	})), cellReps)
	res.add("gio.map_pz_ms", "ms", median(timeReps(cellReps, func() {
		_, unmap, err := gio.MapPZFile(in.p.pzPath)
		keep(err)
		if err == nil {
			keep(unmap())
		}
	})), cellReps)
	if ioErr != nil {
		return ioErr
	}

	if err := sheetDelta(res, in, sink); err != nil {
		return err
	}
	sheetCore(res, in, src)

	// msbfs: one full lane group.
	var met *pasgal.Metrics
	run64 := timeReps(1, func() { _, met, _ = msbfs.Run(g, in.p.pool[:batchLanes], pasgal.Options{}) })
	res.add("msbfs.run64_ms", "ms", run64[0], 1)
	res.add("msbfs.ns_per_arc_lane", "ns", run64[0]*1e6/(m*batchLanes), 1)
	res.add("msbfs.rounds", "count", float64(met.Rounds), 1)

	if err := sheetServe(e, res, in, src); err != nil {
		return err
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss := in.daemonRSS
	if rss == 0 {
		rss = peakRSSMB(os.Getpid())
	}
	res.add("proc.peak_rss_mb", "MB", rss, 1)
	res.add("proc.gc_cycles", "count", float64(ms.NumGC), 1)
	res.add("proc.alloc_mb", "MB", float64(ms.TotalAlloc)/(1<<20), 1)
	res.add("gen.generate_s", "s", in.p.genS, 1)
	return nil
}

// sheetDelta measures the mutation layer on a private store: batch apply
// at two sizes, the snapshot pin, a scan of the overlay once its patch is
// 0.5 % of the base, and one compaction of that patch.
func sheetDelta(res *result, in *sheetInput, sink []uint64) error {
	g := in.g
	st := delta.NewStore(g, delta.Options{CompactFraction: -1})
	defer st.Close()
	k := 0
	apply := func(batches int) (float64, error) {
		var up []delta.Update
		for i := 0; i < batches; i++ {
			dels, ins := updateAt(in.p.seed, k, g)
			k++
			for _, e := range dels {
				up = append(up, delta.Update{U: e.U, V: e.V, Op: delta.Delete})
			}
			for _, e := range ins {
				up = append(up, delta.Update{U: e.U, V: e.V, Op: delta.Insert})
			}
		}
		t := time.Now()
		_, err := st.Apply(up)
		return float64(time.Since(t).Nanoseconds()) / float64(len(up)), err
	}
	var small, large []float64
	for st.Stats().PatchArcs*200 < g.NumArcs() {
		one, err := apply(1)
		if err != nil {
			return err
		}
		sixteen, err := apply(16)
		if err != nil {
			return err
		}
		small, large = append(small, one), append(large, sixteen)
	}
	res.add("delta.apply_ns_per_edge", "ns", median(small), len(small))
	res.add("delta.apply4096_ns_per_edge", "ns", median(large), len(large))

	t := time.Now()
	for i := 0; i < snapshotReps; i++ {
		st.Snapshot().Release()
	}
	res.add("delta.snapshot_ns", "ns", float64(time.Since(t).Nanoseconds())/snapshotReps, snapshotReps)

	sn := st.Snapshot()
	ov := sn.Adj().(*graph.Overlay)
	res.add("graph.scan_overlay_ns_per_arc", "ns", median(timeReps(cellReps, func() {
		parallel.ForRange(g.N, 0, func(lo, hi int) {
			var buf []uint32
			for v := lo; v < hi; v++ {
				buf = ov.AppendNeighbors(uint32(v), buf[:0])
				var s uint64
				for _, u := range buf {
					s += uint64(u)
				}
				sink[v] = s
			}
		})
	}))*1e6/float64(ov.NumArcs()), cellReps)
	sn.Release()
	t = time.Now()
	_, err := st.Compact()
	res.add("delta.compact_ms", "ms", msSince(t), 1)
	return err
}

// sheetCore runs each kernel of the public API on the workload's graph:
// its time, the machine-independent shape of the run (core.Metrics), the
// ratio to the sequential reference, and BFS again on one worker.
func sheetCore(res *result, in *sheetInput, src uint32) {
	type run struct {
		ms  []float64
		met *pasgal.Metrics
	}
	kernel := func(reps int, f func() *pasgal.Metrics) run {
		var r run
		r.ms = timeReps(reps, func() { r.met = f() })
		return r
	}
	bfs := kernel(2*cellReps, func() *pasgal.Metrics { _, m, _ := pasgal.BFS(in.g, src, pasgal.Options{}); return m })
	sssp := kernel(cellReps, func() *pasgal.Metrics { _, m, _ := pasgal.SSSP(in.wg, src, nil, pasgal.Options{}); return m })
	scc := kernel(cellReps, func() *pasgal.Metrics { _, _, m, _ := pasgal.SCC(in.g, pasgal.Options{}); return m })
	bcc := kernel(cellReps, func() *pasgal.Metrics { _, m, _ := pasgal.BCC(in.sym, pasgal.Options{}); return m })
	pasgal.SetWorkers(1)
	bfs1 := kernel(cellReps, func() *pasgal.Metrics { _, m, _ := pasgal.BFS(in.g, src, pasgal.Options{}); return m })
	pasgal.SetWorkers(workers)

	res.add("core.bfs_ms", "ms", median(bfs.ms), len(bfs.ms))
	res.add("core.sssp_ms", "ms", median(sssp.ms), len(sssp.ms))
	res.add("core.scc_ms", "ms", median(scc.ms), len(scc.ms))
	res.add("core.bcc_ms", "ms", median(bcc.ms), len(bcc.ms))
	res.add("core.bfs_rounds", "count", float64(bfs.met.Rounds), 1)
	res.add("core.bfs_bottom_up_rounds", "count", float64(bfs.met.BottomUp), 1)
	res.add("core.bfs_edges_visited", "count", float64(bfs.met.EdgesVisited), 1)
	res.add("core.sssp_rounds", "count", float64(sssp.met.Rounds), 1)
	res.add("core.sssp_edges_visited", "count", float64(sssp.met.EdgesVisited), 1)
	res.add("core.scc_rounds", "count", float64(scc.met.Rounds), 1)
	res.add("core.scc_phases", "count", float64(scc.met.Phases), 1)
	res.add("core.bcc_rounds", "count", float64(bcc.met.Rounds), 1)
	res.add("core.bfs_vs_seq", "ratio", median(bfs.ms)/in.or.seqMs["bfs"], len(bfs.ms))
	res.add("core.sssp_vs_seq", "ratio", median(sssp.ms)/in.or.seqMs["sssp"], len(sssp.ms))
	res.add("core.scc_vs_seq", "ratio", median(scc.ms)/in.or.seqMs["scc"], len(scc.ms))
	res.add("core.bcc_vs_seq", "ratio", median(bcc.ms)/in.or.seqMs["bcc"], len(bcc.ms))
	res.add("core.bfs_p1_ms", "ms", median(bfs1.ms), len(bfs1.ms))
	res.add("core.bfs_speedup", "ratio", median(bfs1.ms)/median(bfs.ms), len(bfs1.ms))
}

// sheetServe measures what the serving layer adds to a kernel, on the
// plain graph and one fixed source: the in-process handler against the
// direct kernel call, the full array against summary=1, a cache hit, and
// the same request to the real binary against the in-process handler.
func sheetServe(e *env, res *result, in *sheetInput, src uint32) error {
	name := in.p.workload.in.name
	srv, err := serve.New(map[string]*graph.Graph{name: in.g}, serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	ht := handlerTarget{srv.Handler()}
	var getErr error
	get := func(t target, path string) {
		status, body, _, err := t.do("GET", path, nil)
		if getErr == nil && (err != nil || status != 200) {
			getErr = fmt.Errorf("sheet: %s: status %d: %v %s", path, status, err, body)
		}
	}
	// coalesce=off: the handler then runs the same core.BFS as the direct
	// call, and the difference is the serving layer alone.
	r := request{algo: "bfs", src: src}
	summary := r.path(name) + "&cache=off&coalesce=off"
	r.full = true
	full := r.path(name) + "&cache=off&coalesce=off"
	r.full = false

	get(ht, summary) // first use builds the transpose
	direct := median(timeReps(handlerReps, func() { pasgal.BFS(in.g, src, pasgal.Options{}) }))
	handler := median(timeReps(handlerReps, func() { get(ht, summary) }))
	res.add("serve.handler_overhead_ms", "ms", handler-direct, handlerReps)
	res.add("serve.encode_full_ms", "ms", median(timeReps(handlerReps, func() { get(ht, full) }))-handler, handlerReps)
	get(ht, r.path(name))
	res.add("serve.cache_hit_ms", "ms", median(timeReps(cacheHitReps, func() { get(ht, r.path(name)) })), cacheHitReps)

	d, err := startDaemon(e.serveBin, "-graph", in.p.binPath)
	if err != nil {
		return err
	}
	real := newHTTPTarget(d.base)
	get(real, summary)
	res.add("serve.http_overhead_ms", "ms", median(timeReps(handlerReps, func() { get(real, summary) }))-handler, handlerReps)
	if err := d.stop(); err != nil {
		return err
	}
	return getErr
}
