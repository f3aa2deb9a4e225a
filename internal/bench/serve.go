package bench

import (
	"context"
	"fmt"
	"net/http/httptest"

	"pasgal/internal/graph"
	"pasgal/internal/serve"
)

// ServeImpls names the serving-throughput configurations: the coalesced
// single-source BFS path (group-commit into shared MS-BFS runs) and the
// same traffic with ?coalesce=off (one dedicated traversal per query).
var ServeImpls = []string{"Coalesced", "Direct", "Mixed"}

// ServeClients is the concurrency of the serving experiment — the batch
// pressure the coalescer needs to fill lanes.
const ServeClients = 64

// serveRequests is the fixed request budget per measured cell.
const serveRequests = 512

// TableServe measures end-to-end serving throughput through the full
// daemon stack — HTTP, admission control, result cache off — driven by
// the load generator at ServeClients concurrent clients. The headline
// cell is single-source BFS on the power-law graph with coalescing on
// vs off: group-committing concurrent queries into shared MS-BFS lane
// runs must multiply queries/sec, because each flushed batch charges one
// admission slot and one set of edge scans for up to 64 queries.
func TableServe(c Config) []Result {
	fmt.Fprintf(c.Out, "\n== Serving throughput (pasgal-serve + loadgen, %d clients) ==\n", ServeClients)
	rows := [][]string{{"Graph", "Impl", "Time", "q/s", "p50", "p99", "batches"}}
	var results []Result
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for _, s := range queriesSpecs() {
		g := c.build(s)
		// Lane groups fill while their sources queue for the admission
		// slot, so the width follows the client concurrency.
		srv, err := serve.New(map[string]*graph.Graph{s.Name: g},
			serve.Config{Opt: c.options()})
		if err != nil {
			fmt.Fprintf(c.Out, "serve: %v\n", err)
			continue
		}
		hs := httptest.NewServer(srv.Handler())
		res := newResult(fmt.Sprintf("%s-C%d", s.Name, ServeClients), s.Category, g)
		cells := []struct {
			impl     string
			mix      map[string]int
			coalesce bool
		}{
			// Pure single-source BFS traffic: the coalescing A/B the
			// acceptance gate reads.
			{"Coalesced", map[string]int{"bfs": 1}, true},
			{"Direct", map[string]int{"bfs": 1}, false},
			// The standard mixed workload, for the serving regression gate.
			{"Mixed", nil, true},
		}
		for _, cell := range cells {
			var rep *serve.Report
			secs := timed(c.Reps, func() {
				r, lerr := serve.RunLoad(ctx, serve.LoadConfig{
					BaseURL:  hs.URL,
					Graph:    s.Name,
					Clients:  ServeClients,
					Requests: serveRequests,
					Mix:      cell.mix,
					Coalesce: cell.coalesce,
					Cache:    false, // measure compute, not cache replay
					Summary:  true,  // measure compute, not array encoding
					Seed:     1,
				})
				if lerr == nil {
					rep = r
				} else {
					fmt.Fprintf(c.Out, "serve %s/%s: %v\n", s.Name, cell.impl, lerr)
				}
			})
			if rep == nil || rep.Errors > 0 {
				fmt.Fprintf(c.Out, "serve %s/%s: load run failed\n", s.Name, cell.impl)
				continue
			}
			res.Times[cell.impl] = secs
			rows = append(rows, []string{res.Graph, cell.impl, fmtTime(secs),
				fmt.Sprintf("%.0f", rep.QPS),
				fmt.Sprintf("%.2fms", rep.P50*1e3),
				fmt.Sprintf("%.2fms", rep.P99*1e3),
				fmt.Sprintf("%d", rep.CoalescedBatches)})
		}
		hs.Close()
		srv.Close()
		if tc, td := res.Times["Coalesced"], res.Times["Direct"]; tc > 0 && td > 0 {
			fmt.Fprintf(c.Out, "%s: coalesced BFS serves %.2fx the qps of dedicated traversals\n",
				res.Graph, td/tc)
		}
		results = append(results, res)
	}
	printAligned(c.Out, rows)
	return results
}
