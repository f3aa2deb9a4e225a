// pasgal-serve is the long-running graph query daemon: it loads graphs
// into memory once at startup and answers concurrent bfs / sssp / scc /
// kcore / reachable / p2p queries over HTTP/JSON until told to stop.
//
// Usage:
//
//	pasgal-serve -workload TW -listen :8080
//	pasgal-serve -workload TW,NA -scale 0.5 -max-concurrent 4
//	pasgal-serve -graph road.adj -cache 1024 -max-timeout 10s
//	pasgal-serve -graph social.pz -mmap
//	pasgal-serve -workload TW -mutable
//
// Queries:
//
//	curl 'localhost:8080/query/bfs?graph=TW&src=3'
//	curl 'localhost:8080/query/p2p?graph=TW&src=3&dst=9&timeout=50ms'
//	curl -X POST 'localhost:8080/update?graph=TW' -d '{"inserts":[{"u":3,"v":9}]}'
//	curl 'localhost:8080/metrics'
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting, new
// queries get 503, in-flight queries finish (or hit their deadline), and
// the process exits 0. See docs/SERVING.md for the full API contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pasgal"
	"pasgal/internal/core"
	"pasgal/internal/gen"
	"pasgal/internal/graph"
	"pasgal/internal/serve"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	workload := flag.String("workload", "", "comma-separated registry workload names to serve")
	scale := flag.Float64("scale", 1.0, "workload size multiplier (with -workload)")
	path := flag.String("graph", "", "graph file to serve (.adj, .bin, .pz, or edge list)")
	directed := flag.Bool("directed", true, "treat file input as directed")
	mmap := flag.Bool("mmap", false, "memory-map a .pz graph instead of reading it (O(page-in) startup; arc data faults in on demand)")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	maxConc := flag.Int("max-concurrent", 0, "admission bound on concurrent computations (0 = one at a time, each on the whole worker pool)")
	cacheEntries := flag.Int("cache", serve.DefaultCacheEntries, "result cache entries (negative disables)")
	maxTimeout := flag.Duration("max-timeout", serve.DefaultMaxTimeout, "cap on per-query ?timeout= and the implicit deadline")
	coalesce := flag.Bool("coalesce", true, "group-commit single-source bfs/reachable into shared MS-BFS runs")
	tau := flag.Int("tau", 0, "VGC budget for served queries (0 = default)")
	mutable := flag.Bool("mutable", false, "serve graphs through epoch-snapshot delta stores; POST /update applies insert/delete batches (plain CSR only)")
	compactFrac := flag.Float64("compact-fraction", 0, "with -mutable: background-compact when the overlay exceeds this fraction of the base arcs (0 = default, negative disables)")
	flag.Parse()

	if *mutable && *mmap {
		// An mmap view is a read-only compressed file; there is no plain
		// CSR to base a delta store on.
		fmt.Fprintln(os.Stderr, "pasgal-serve: -mutable and -mmap are incompatible (mutable serving needs plain CSR)")
		os.Exit(2)
	}

	if *workers > 0 {
		pasgal.SetWorkers(*workers)
	}

	graphs := make(map[string]graph.Adjacency)
	var closers []func() error
	if *workload != "" {
		for _, name := range strings.Split(*workload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			spec := gen.LookupSpec(name)
			if spec == nil {
				fmt.Fprintf(os.Stderr, "pasgal-serve: unknown workload %q\n", name)
				os.Exit(2)
			}
			fmt.Printf("pasgal-serve: building workload %s (scale %g)...\n", name, *scale)
			graphs[name] = spec.Build(*scale)
		}
	}
	if *path != "" {
		name := strings.TrimSuffix(filepath.Base(*path), filepath.Ext(*path))
		start := time.Now()
		switch {
		case *mmap:
			// Memory-mapped startup: only the header and offset table are
			// touched before serving begins; compressed arc bytes page in
			// lazily as queries scan them.
			if !strings.HasSuffix(*path, ".pz") {
				fmt.Fprintln(os.Stderr, "pasgal-serve: -mmap requires a .pz graph file")
				os.Exit(2)
			}
			c, closer, err := pasgal.MapCompressed(*path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pasgal-serve: %v\n", err)
				os.Exit(1)
			}
			closers = append(closers, closer)
			graphs[name] = c
			fmt.Printf("pasgal-serve: mapped %s in %v (%.2f bytes/edge; arc data pages in on demand)\n",
				*path, time.Since(start).Round(time.Microsecond), c.BytesPerArc())
		case strings.HasSuffix(*path, ".pz"):
			// Without -mmap the whole file is read, checksummed, and
			// validated, but still served compressed.
			c, err := pasgal.LoadCompressed(*path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pasgal-serve: %v\n", err)
				os.Exit(1)
			}
			graphs[name] = c
			fmt.Printf("pasgal-serve: loaded %s in %v (verified, %.2f bytes/edge)\n",
				*path, time.Since(start).Round(time.Millisecond), c.BytesPerArc())
		default:
			g, err := pasgal.LoadGraph(*path, *directed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pasgal-serve: %v\n", err)
				os.Exit(1)
			}
			graphs[name] = g
		}
	}
	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "pasgal-serve: need -workload and/or -graph")
		os.Exit(2)
	}
	for name, g := range graphs {
		fmt.Printf("pasgal-serve: serving %q: %v\n", name, g)
	}

	srv, err := serve.NewAdj(graphs, serve.Config{
		MaxConcurrent:   *maxConc,
		CacheEntries:    *cacheEntries,
		MaxTimeout:      *maxTimeout,
		DisableCoalesce: !*coalesce,
		Opt:             core.Options{Tau: *tau},
		Mutable:         *mutable,
		CompactFraction: *compactFrac,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-serve: %v\n", err)
		os.Exit(1)
	}

	// Listen explicitly (rather than ListenAndServe) so -listen :0 picks a
	// free port and the actual bound address is printed for the client.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-serve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("pasgal-serve: listening on %s (%d workers, admission %s)\n",
		ln.Addr(), pasgal.Workers(), admDesc(*maxConc))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pasgal-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process as usual

	// Drain: stop accepting, let in-flight requests finish (bounded by
	// their own deadlines plus a shutdown grace period), then release the
	// server's coalescers and counters.
	fmt.Println("pasgal-serve: draining...")
	shCtx, cancel := context.WithTimeout(context.Background(), *maxTimeout+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pasgal-serve: shutdown: %v\n", err)
	}
	srv.Close()
	for _, closer := range closers {
		if err := closer(); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-serve: unmap: %v\n", err)
		}
	}
	fmt.Println("pasgal-serve: bye")
}

// admDesc names the admission bound the server enforces: -max-concurrent
// when set, else one computation at a time (serve.New's default).
func admDesc(maxConc int) string {
	if maxConc > 0 {
		return fmt.Sprintf("%d", maxConc)
	}
	return "1 (one at a time)"
}
