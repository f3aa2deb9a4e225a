// Command benchmark is the repository's benchmark: four workloads (two
// analytics, two serving), end-to-end metrics measured with tracing off,
// per-layer metrics from a separate traced run, every answer checked
// against a sequential oracle. See README.md in this directory.
//
// One run measures one workload:
//
//	benchmark --workload serve-pz-read --seed 1 --seconds 20 --trace 0
//
// prints a table of every metric and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}. Without
// --workload it runs all four, untraced and traced, each in a fresh
// process, and ends with a JSON summary; -agree repeats the untraced set
// and reports whether the medians agree within the bounds of
// ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"pasgal"
	"pasgal/internal/graph"
)

// workers is the worker-team size of the library, the -workers of the
// daemon, and the number of load-generating clients: min(nproc, 4), set
// explicitly because Go before 1.25 ignores a container's CPU quota.
var workers = min(runtime.NumCPU(), 4)

// env is where one run reads and writes.
type env struct {
	benchDir string // this package's directory
	work     string // build outputs and generated graphs (<root>/.bench_build)
	out      string // spans and reports
	serveBin string
	seed     uint64
	seconds  float64
}

// result is what one run of one workload produces.
type result struct {
	attempted int
	failed    int
	metrics   []metric // the gated set of this mode
	extras    []metric // workload-specific detail: printed, not gated
	notes     []string // self-check failures: the run is not correct
}

func (r *result) add(name, unit string, v float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, v, samples})
}

func (r *result) extra(name, unit string, v float64, samples int) {
	r.extras = append(r.extras, metric{name, unit, v, samples})
}

func (r *result) correct() bool { return r.failed == 0 && len(r.notes) == 0 }

func main() {
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and request streams")
	name := flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
	out := flag.String("out", "", "directory for spans and reports (default: out/ beside this package)")
	agree := flag.Bool("agree", false, "run the untraced set twice and compare medians against the bounds")
	seconds := flag.Float64("seconds", runSeconds, "measured span of one run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()

	e, err := newEnv(*seed, *seconds, *out)
	if err != nil {
		fatal(err)
	}
	switch {
	case *agree:
		err = runAgree(e)
	case *name == "":
		err = runAll(e)
	default:
		err = runOne(e, *name, *traced == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// newEnv finds this package's directory from the working directory (the
// repository root, or the package directory itself under `go run .`).
func newEnv(seed uint64, seconds float64, out string) (*env, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	benchDir := ""
	for _, d := range []string{cwd, filepath.Join(cwd, "benchmark")} {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module pasgal/benchmark") {
			benchDir = d
		}
	}
	if benchDir == "" {
		return nil, errors.New("run from the repository root or from benchmark/")
	}
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	e := &env{benchDir: benchDir, seed: seed, seconds: seconds, out: out}
	e.work = filepath.Join(filepath.Dir(benchDir), ".bench_build")
	if e.out == "" {
		e.out = filepath.Join(benchDir, "out")
	}
	e.serveBin = filepath.Join(e.work, "bin", "pasgal-serve")
	return e, nil
}

// buildServer builds the real cmd/pasgal-serve from the checkout this
// package sits in. It fails, before any result is printed, when the rest
// of the repository is missing.
func (e *env) buildServer() error {
	cmd := exec.Command("go", "build", "-o", e.serveBin, "pasgal/cmd/pasgal-serve")
	cmd.Dir = e.benchDir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building pasgal-serve: %v\n%s", err, b)
	}
	return nil
}

// runOne measures one workload and prints the table and the result line.
// A run whose answers or self-checks failed still prints its result, with
// "correct": false, and then exits non-zero.
func runOne(e *env, name string, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	pasgal.SetWorkers(workers)
	runtime.GOMAXPROCS(workers)
	if err := e.buildServer(); err != nil {
		return err
	}
	printHost(w, e, traced)
	res, err := measure(e, w, traced)
	if err != nil {
		return err
	}
	printTable(res, traced)
	for _, n := range res.notes {
		fmt.Println("SELF-CHECK FAILED:", n)
	}
	if err := checkDeclared(e, res, traced); err != nil {
		return err
	}
	printResultLine(res)
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed, %d self-checks failed",
			name, res.failed, res.attempted, len(res.notes))
	}
	return nil
}

// measure runs the workload inside its own directory of generated graph
// files and removes the directory afterwards.
func measure(e *env, w workload, traced bool) (*result, error) {
	dir := filepath.Join(e.work, "data", fmt.Sprintf("%s-%d-%d", w.name, e.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if w.analytics != nil {
		return runAnalytics(e, w, dir, traced)
	}
	return runServing(e, w, dir, traced)
}

func printHost(w workload, e *env, traced bool) {
	commit := "unknown"
	if b, err := exec.Command("git", "-C", e.benchDir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %t\n", w.name, e.seed, e.seconds, traced)
	fmt.Printf("host: commit %s  %s  nproc %d  GOMAXPROCS %d  workers %d  clients %d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, workers)
}

// declared is the part of BENCHMARK.json the harness reads back.
type declared struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(e *env) (*declared, error) {
	b, err := os.ReadFile(filepath.Join(filepath.Dir(e.benchDir), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// checkDeclared holds the run to BENCHMARK.json: the metrics of this mode
// are exactly the declared ones, with the declared units.
func checkDeclared(e *env, res *result, traced bool) error {
	d, err := readDeclared(e)
	if err != nil {
		return err
	}
	want := map[string]string{}
	if traced {
		for _, m := range d.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range d.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for _, m := range res.metrics {
		if u, ok := want[m.Name]; !ok || u != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared in BENCHMARK.json", m.Name, m.Unit)
		}
		delete(want, m.Name)
	}
	for name := range want {
		return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", name)
	}
	return nil
}

func printTable(res *result, traced bool) {
	kind := "end-to-end (gated)"
	if traced {
		kind = "per-layer (not gated)"
	}
	fmt.Printf("\n%-34s %14s %-7s %8s\n", kind, "value", "unit", "samples")
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.4f %-7s %8d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if len(res.extras) > 0 {
		fmt.Printf("\n%-34s %14s %-7s %8s\n", "workload detail (not gated)", "value", "unit", "samples")
		for _, m := range res.extras {
			fmt.Printf("%-34s %14.4f %-7s %8d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("\nfail_share %.6f  (%d failed of %d attempted)\n", share, res.failed, res.attempted)
}

// printResultLine prints the one-line result the driver reads.
func printResultLine(res *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, map[string]mv{}}
	for _, m := range res.metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// arcsOf lists g's arcs as an edge list (the input FromEdges takes).
func arcsOf(g *graph.Graph) []graph.Edge {
	edges := make([]graph.Edge, 0, len(g.Edges))
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			edges = append(edges, graph.Edge{U: uint32(u), V: v})
		}
	}
	return edges
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
