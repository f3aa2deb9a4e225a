package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pasgal"
	"pasgal/internal/graph"
	"pasgal/internal/parallel"
	"pasgal/internal/trace"
)

// analyticsRun is an analytics workload ready to cycle: the loaded graph
// in the three forms the kernels take, the fixed sources, and the oracle.
type analyticsRun struct {
	spec     *analyticsSpec
	g, wg    *graph.Graph
	sym      *graph.Graph
	bfsSrcs  []uint32 // batchLanes of them: a cycle takes the next cycleBFS; the batched BFS takes all
	ssspSrcs []uint32 // ssspSources of them: a cycle takes the next cycleSSSP
	or       *oracle
}

// loadAnalytics is what setup_s times for an analytics workload: what a
// user of the library pays between naming a file and the first fast
// query. The transposes are built lazily by the first bottom-up BFS, SCC
// and SSSP; forcing them here keeps that cost out of the first cycle.
func loadAnalytics(binPath string) (g, wg, sym *graph.Graph, err error) {
	g, err = pasgal.LoadGraph(binPath, true)
	if err != nil {
		return nil, nil, nil, err
	}
	wg = weigh(g)
	sym = g.Symmetrized()
	g.Transpose()
	wg.Transpose()
	return g, wg, sym, nil
}

// opSample is one timed kernel call.
type opSample struct {
	kind string
	ms   float64
}

// cycle runs the fixed op list for the c-th time. Each kernel call is
// timed on its own; its answer is checked against the oracle outside the
// timed span. Sources rotate through the fixed sets from cycle to cycle,
// so that a run's medians stand on many sources and depend little on
// which ones the seed drew. With a recorder, every op is a span with the
// kernel call as its child, so the op's self time is what the harness
// itself costs.
func (a *analyticsRun) cycle(c int, opt pasgal.Options, rec *spanRec, req *int) (samples []opSample, failed int) {
	do := func(kind string, call func() error, check func() bool) {
		*req++
		op := rec.begin("op", kind, 0, *req)
		k := rec.begin("core."+kind, kind, op, *req)
		t := time.Now()
		err := call()
		ms := msSince(t)
		rec.end(k)
		if err != nil || !check() {
			failed++
		}
		rec.end(op)
		samples = append(samples, opSample{kind, ms})
	}
	for i := 0; i < cycleBFS; i++ {
		src := a.bfsSrcs[(c*cycleBFS+i)%len(a.bfsSrcs)]
		var dist []uint32
		do("bfs",
			func() (err error) { dist, _, err = pasgal.BFS(a.g, src, opt); return },
			func() bool { return sum32(dist) == a.or.bfs[src].sum })
	}
	for i := 0; i < cycleSSSP; i++ {
		src := a.ssspSrcs[(c*cycleSSSP+i)%len(a.ssspSrcs)]
		var dist []uint64
		do("sssp",
			func() (err error) { dist, _, err = pasgal.SSSP(a.wg, src, nil, opt); return },
			func() bool { return sum64(dist) == a.or.sssp[src].sum })
	}
	var labels []uint32
	var count int
	do("scc",
		func() (err error) { labels, count, _, err = pasgal.SCC(a.g, opt); return },
		func() bool { return count == a.or.sccCount && partitionSum(labels) == a.or.sccSum })
	var bcc pasgal.BCCResult
	do("bcc",
		func() (err error) { bcc, _, err = pasgal.BCC(a.sym, opt); return },
		func() bool {
			return bcc.NumBCC == a.or.bccCount && boolSum(bcc.IsArt) == a.or.bccArts &&
				partitionSum(bcc.ArcLabel) == a.or.bccArcs
		})
	if a.spec.batched {
		var rows [][]uint32
		do("batch64",
			func() (err error) { rows, _, err = pasgal.BatchedBFS(a.g, a.bfsSrcs, opt); return },
			func() bool {
				for i, s := range a.bfsSrcs {
					if sum32(rows[i]) != a.or.bfs[s].sum {
						return false
					}
				}
				return len(rows) == len(a.bfsSrcs)
			})
	}
	return samples, failed
}

// prepared is what both kinds of workload hold after set-up: the
// generated graph, its files, the source pool, and the numbers set-up
// itself produced.
type prepared struct {
	g        *graph.Graph // as generated
	binPath  string
	pzPath   string
	pool     []uint32
	reach    int
	genS     float64
	setupS   []float64
	workload workload
	seed     uint64
}

// prepare generates the input from the seed and writes the files the
// program is handed.
func prepare(e *env, w workload, dir string) (*prepared, error) {
	t := time.Now()
	g := w.in.build(e.seed)
	p := &prepared{g: g, genS: time.Since(t).Seconds(), workload: w, seed: e.seed}
	p.binPath = filepath.Join(dir, w.in.name+".bin")
	p.pzPath = filepath.Join(dir, w.in.name+".pz")
	if err := pasgal.SaveGraph(p.binPath, g); err != nil {
		return nil, err
	}
	if err := pasgal.SaveCompressed(p.pzPath, pasgal.CompressGraph(g)); err != nil {
		return nil, err
	}
	var err error
	p.pool, p.reach, err = pickPool(g, e.seed, hotIDs+coldIDs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.in.name, err)
	}
	if len(p.pool) < batchLanes+ssspSources {
		return nil, fmt.Errorf("%s: only %d usable sources", w.in.name, len(p.pool))
	}
	return p, nil
}

func runAnalytics(e *env, w workload, dir string, traced bool) (*result, error) {
	p, err := prepare(e, w, dir)
	if err != nil {
		return nil, err
	}
	a := &analyticsRun{spec: w.analytics}
	for i := 0; i < analyticsSetups; i++ {
		t := time.Now()
		a.g, a.wg, a.sym, err = loadAnalytics(p.binPath)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(t).Seconds())
	}
	a.bfsSrcs = p.pool[:batchLanes]
	a.ssspSrcs = p.pool[batchLanes : batchLanes+ssspSources]
	a.or = traversalOracle(a.g, a.wg, a.bfsSrcs, a.ssspSrcs)
	a.or.addComponents(a.g, a.sym)

	res := &result{}
	if !traced {
		a.measure(e, p, res)
		return res, nil
	}
	rec := newSpanRec()
	a.replay(rec, res)
	if err := sheet(e, res, &sheetInput{p: p, g: a.g, wg: a.wg, sym: a.sym, or: a.or}); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(e.out, w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// measure is the untraced run: cycles until --seconds of kernel time
// have passed, at least minCycles.
func (a *analyticsRun) measure(e *env, p *prepared, res *result) {
	byKind := map[string][]float64{}
	var all, cycleS []float64
	req := 0
	busy := 0.0
	for c := 0; c < minCycles || busy < e.seconds; c++ {
		samples, failed := a.cycle(c, pasgal.Options{}, nil, &req)
		res.failed += failed
		res.attempted += len(samples)
		sum := 0.0
		for _, s := range samples {
			byKind[s.kind] = append(byKind[s.kind], s.ms)
			all = append(all, s.ms)
			sum += s.ms
		}
		cycleS = append(cycleS, sum/1e3)
		busy += sum / 1e3
	}
	p95, used := tailPercentile(all, 0.95)
	res.add("setup_s", "s", median(p.setupS), len(p.setupS))
	res.add("qps", "1/s", float64(len(all))/float64(len(cycleS))/median(cycleS), len(cycleS))
	res.add("query_p50_ms", "ms", median(all), len(all))
	res.add("query_p95_ms", "ms", p95, len(all))
	res.add("bfs_ms", "ms", median(byKind["bfs"]), len(byKind["bfs"]))
	res.add("sssp_ms", "ms", median(byKind["sssp"]), len(byKind["sssp"]))
	res.extra("query_tail_percentile", "ratio", used, len(all))
	res.extra("suite_s", "s", median(cycleS), len(cycleS))
	for _, k := range []string{"scc", "bcc", "batch64"} {
		if xs := byKind[k]; len(xs) > 0 {
			res.extra(k+"_ms", "ms", median(xs), len(xs))
		}
	}
}

// replay is the traced run's workload part: pairs of one untraced and
// one traced cycle. The difference of their medians is what a
// trace.Tracer in core.Options costs; the scheduler counters are read
// around the traced cycles.
func (a *analyticsRun) replay(rec *spanRec, res *result) {
	var plain, traced []float64
	req := 0
	var steals, parks int64
	total := func(samples []opSample) (s float64) {
		for _, x := range samples {
			s += x.ms
		}
		return s
	}
	for i := 0; i < tracedPairs; i++ {
		samples, failed := a.cycle(i, pasgal.Options{}, nil, &req)
		res.failed += failed
		res.attempted += len(samples)
		plain = append(plain, total(samples))

		before := parallel.SchedStats()
		samples, failed = a.cycle(i, pasgal.Options{Tracer: trace.New()}, rec, &req)
		after := parallel.SchedStats()
		res.failed += failed
		res.attempted += len(samples)
		traced = append(traced, total(samples))
		steals += after.Steals - before.Steals
		parks += after.Parks - before.Parks
	}
	res.add("parallel.steals", "count", float64(steals)/tracedPairs, tracedPairs)
	res.add("parallel.parks", "count", float64(parks)/tracedPairs, tracedPairs)
	res.add("trace.overhead_share", "ratio", (median(traced)-median(plain))/median(plain), tracedPairs)
	// No daemon runs in an analytics workload: its counters are zero.
	res.metrics = append(res.metrics,
		metric{"serve.cache_hit_share", "ratio", 0, 0},
		metric{"serve.coalesce_width", "count", 0, 0},
		metric{"serve.admission_peak", "count", 0, 0},
		metric{"delta.compactions", "count", 0, 0},
		metric{"delta.patch_arcs", "count", 0, 0})
	self := selfTimes(rec.spans)
	for _, name := range sortedKeys(self) {
		res.extra("self_ms."+name, "ms", median(self[name]), len(self[name]))
	}
}
