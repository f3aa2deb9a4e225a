// pasgal-loadgen drives mixed query traffic at a running pasgal-serve
// daemon and reports throughput plus nearest-rank p50/p90/p99 latency.
// The repository benchmark (`bash benchmark/run.sh`) drives the daemon
// with its own fixed schedules; this is the handheld tool.
//
// Usage:
//
//	pasgal-loadgen -url http://localhost:8080 -clients 64 -requests 4096
//	pasgal-loadgen -url http://localhost:8080 -mix bfs=1 -coalesce=false
//	pasgal-loadgen -url http://localhost:8080 -duration 10s -json out.json
//
// The traffic mix is a comma-separated weight list over the served
// endpoints (default "bfs=8,reachable=4,p2p=4,sssp=2,scc=1,kcore=1").
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "pasgal-serve base URL")
	graphName := flag.String("graph", "", "served graph to query (default: first from /graphs)")
	clients := flag.Int("clients", 8, "concurrent client loops")
	requests := flag.Int("requests", 0, "total request budget (0 = clients*32)")
	duration := flag.Duration("duration", 0, "stop after this long even if budget remains (0 = no limit)")
	mixSpec := flag.String("mix", "", "traffic mix, e.g. bfs=8,p2p=2 (default: standard mixed workload)")
	coalesce := flag.Bool("coalesce", true, "allow server-side query coalescing (false appends coalesce=off)")
	cache := flag.Bool("cache", true, "allow server-side result caching (false appends cache=off)")
	sources := flag.Int("sources", 0, "bound on the source-id space (0 = min(n, 4096))")
	timeout := flag.Duration("timeout", 0, "per-query ?timeout= (0 = none)")
	seed := flag.Uint64("seed", 1, "traffic RNG seed")
	jsonOut := flag.String("json", "", "also write the report to this JSON file")
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-loadgen: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := runLoad(ctx, loadConfig{
		BaseURL:    *url,
		Graph:      *graphName,
		Clients:    *clients,
		Requests:   *requests,
		Duration:   *duration,
		Mix:        mix,
		Coalesce:   *coalesce,
		Cache:      *cache,
		NumSources: *sources,
		Timeout:    *timeout,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-loadgen: %v\n", err)
		os.Exit(1)
	}
	writeReport(os.Stdout, rep)

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-loadgen: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// parseMix turns "bfs=8,p2p=2" into a weight map ("" = nil = default).
func parseMix(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	mix := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		algo, wt, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want algo=weight)", part)
		}
		w, err := strconv.Atoi(wt)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		mix[algo] = w
	}
	return mix, nil
}
