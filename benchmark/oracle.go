package main

import (
	"sync"
	"time"

	"pasgal"
	"pasgal/internal/graph"
)

// The oracles are the sequential references of the public API
// (pasgal.Sequential*). They run during set-up, untimed; every timed op
// compares a checksum of its answer against them.

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func sum32(a []uint32) uint64 {
	h := uint64(fnvOffset)
	for _, x := range a {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

func sum64(a []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, x := range a {
		h = (h ^ x) * fnvPrime
	}
	return h
}

// partitionSum is a checksum of the partition labels induces, blind to
// which id names each class: classes are renumbered in order of first
// appearance before hashing. graph.None ("in no class") hashes as itself.
func partitionSum(labels []uint32) uint64 {
	var top uint32
	for _, l := range labels {
		if l != graph.None {
			top = max(top, l)
		}
	}
	canon := make([]uint32, int(top)+1)
	next := uint32(1)
	h := uint64(fnvOffset)
	for _, l := range labels {
		var c uint32
		if l != graph.None {
			if canon[l] == 0 {
				canon[l] = next
				next++
			}
			c = canon[l]
		}
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func boolSum(a []bool) uint64 {
	h := uint64(fnvOffset)
	for _, x := range a {
		var b uint64
		if x {
			b = 1
		}
		h = (h ^ b) * fnvPrime
	}
	return h
}

// bfsAnswer is what the oracle keeps of one sequential BFS.
type bfsAnswer struct {
	sum     uint64
	reached int
	ecc     uint32
}

func summarizeBFS(dist []uint32) bfsAnswer {
	a := bfsAnswer{sum: sum32(dist)}
	for _, d := range dist {
		if d != pasgal.InfDist {
			a.reached++
			a.ecc = max(a.ecc, d)
		}
	}
	return a
}

// ssspAnswer keeps the whole distance array: p2p answers are looked up
// in it.
type ssspAnswer struct {
	sum     uint64
	reached int
	dist    []uint64
}

func summarizeSSSP(dist []uint64) ssspAnswer {
	a := ssspAnswer{sum: sum64(dist), dist: dist}
	for _, d := range dist {
		if d != pasgal.InfWeight {
			a.reached++
		}
	}
	return a
}

// oracle holds the sequential answers for the fixed sources of one run,
// and how long the sequential references took (the base of core.*_vs_seq).
type oracle struct {
	bfs  map[uint32]bfsAnswer
	sssp map[uint32]ssspAnswer

	sccCount int
	sccSum   uint64
	bccCount int
	bccArts  uint64
	bccArcs  uint64

	seqMs map[string]float64 // bfs, sssp, scc, bcc: one sequential run each
}

// eachParallel runs f(i) for i in [0,n) on `workers` goroutines. The
// oracles are independent sequential runs, so set-up spreads them over
// the cores it has.
func eachParallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// traversalOracle computes sequential BFS answers for bfsSrcs on g and
// sequential SSSP answers for ssspSrcs on the weighted wg.
func traversalOracle(g, wg *graph.Graph, bfsSrcs, ssspSrcs []uint32) *oracle {
	o := &oracle{
		bfs:   make(map[uint32]bfsAnswer, len(bfsSrcs)),
		sssp:  make(map[uint32]ssspAnswer, len(ssspSrcs)),
		seqMs: make(map[string]float64),
	}
	// One timed run of each reference on an otherwise idle process.
	if len(bfsSrcs) > 0 {
		t := time.Now()
		pasgal.SequentialBFS(g, bfsSrcs[0])
		o.seqMs["bfs"] = msSince(t)
	}
	if len(ssspSrcs) > 0 {
		t := time.Now()
		pasgal.SequentialSSSP(wg, ssspSrcs[0])
		o.seqMs["sssp"] = msSince(t)
	}
	var mu sync.Mutex
	eachParallel(len(bfsSrcs)+len(ssspSrcs), func(i int) {
		if i < len(bfsSrcs) {
			a := summarizeBFS(pasgal.SequentialBFS(g, bfsSrcs[i]))
			mu.Lock()
			o.bfs[bfsSrcs[i]] = a
			mu.Unlock()
			return
		}
		s := ssspSrcs[i-len(bfsSrcs)]
		a := summarizeSSSP(pasgal.SequentialSSSP(wg, s))
		mu.Lock()
		o.sssp[s] = a
		mu.Unlock()
	})
	return o
}

// addComponents adds the sequential SCC of g and BCC of its symmetrized
// form sym to the oracle.
func (o *oracle) addComponents(g, sym *graph.Graph) {
	t := time.Now()
	labels, count := pasgal.SequentialSCC(g)
	o.seqMs["scc"] = msSince(t)
	o.sccCount, o.sccSum = count, partitionSum(labels)

	t = time.Now()
	res := pasgal.SequentialBCC(sym)
	o.seqMs["bcc"] = msSince(t)
	o.bccCount, o.bccArts, o.bccArcs = res.NumBCC, boolSum(res.IsArt), partitionSum(res.ArcLabel)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
