package pasgal

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// buildTools compiles every command once per test binary run and returns
// the directory holding them.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"pasgal", "pasgal-gen", "pasgal-stats",
		"pasgal-bench", "pasgal-convert", "pasgal-vet", "pasgal-serve",
		"pasgal-loadgen"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five binaries")
	}
	bins := buildTools(t)
	work := t.TempDir()

	// pasgal-gen: write a workload in two formats.
	adj := filepath.Join(work, "na.adj")
	gr := filepath.Join(work, "na.gr")
	run(t, filepath.Join(bins, "pasgal-gen"), "-workload", "NA", "-scale", "0.05", "-o", adj)
	run(t, filepath.Join(bins, "pasgal-gen"), "-workload", "NA", "-scale", "0.05",
		"-weights", "-o", gr)

	// pasgal-convert: adj -> gzipped bin, with stats.
	binGz := filepath.Join(work, "na.bin.gz")
	out := run(t, filepath.Join(bins, "pasgal-convert"), "-in", adj, "-out", binGz, "-stats")
	if !strings.Contains(out, "n=") {
		t.Fatalf("convert stats missing: %s", out)
	}

	// pasgal-stats on the file.
	out = run(t, filepath.Join(bins, "pasgal-stats"), "-graph", binGz)
	if !strings.Contains(out, "directed graph") {
		t.Fatalf("stats output: %s", out)
	}

	// pasgal: run and verify each algorithm.
	for _, algo := range []string{"bfs", "scc", "sssp"} {
		out = run(t, filepath.Join(bins, "pasgal"), "-algo", algo, "-graph", binGz, "-verify")
		if !strings.Contains(out, "verified against") {
			t.Fatalf("%s verify missing: %s", algo, out)
		}
	}
	out = run(t, filepath.Join(bins, "pasgal"), "-algo", "bcc", "-graph", adj, "-verify")
	if !strings.Contains(out, "verified against") {
		t.Fatalf("bcc verify missing: %s", out)
	}
	// Loading a directed arc set as undirected must fail loudly rather
	// than feed asymmetric data to undirected algorithms.
	if err := exec.Command(filepath.Join(bins, "pasgal"), "-algo", "bcc",
		"-graph", adj, "-directed=false").Run(); err == nil {
		t.Fatal("expected failure loading a directed .adj as undirected")
	}
	// SSSP from a DIMACS file (weighted input path).
	out = run(t, filepath.Join(bins, "pasgal"), "-algo", "sssp", "-graph", gr, "-policy", "delta")
	if !strings.Contains(out, "sssp(delta)") {
		t.Fatalf("sssp output: %s", out)
	}
	// Extension algorithms.
	out = run(t, filepath.Join(bins, "pasgal"), "-algo", "kcore", "-graph", binGz, "-verify")
	if !strings.Contains(out, "verified against") {
		t.Fatalf("kcore verify missing: %s", out)
	}
	out = run(t, filepath.Join(bins, "pasgal"), "-algo", "ptp", "-graph", gr,
		"-dst", "3", "-verify")
	if !strings.Contains(out, "verified against") {
		t.Fatalf("ptp verify missing: %s", out)
	}
	out = run(t, filepath.Join(bins, "pasgal"), "-algo", "cc", "-graph", binGz)
	if !strings.Contains(out, "connected components") {
		t.Fatalf("cc output: %s", out)
	}
	out = run(t, filepath.Join(bins, "pasgal"), "-algo", "reach", "-graph", binGz)
	if !strings.Contains(out, "reachable from") {
		t.Fatalf("reach output: %s", out)
	}

	// pasgal-bench: a tiny experiment run.
	out = run(t, filepath.Join(bins, "pasgal-bench"), "-exp", "frontier", "-scale", "0.05")
	if !strings.Contains(out, "Frontier growth") {
		t.Fatalf("bench output: %s", out)
	}
}

// TestCLIConvertPZ covers the compressed on-disk path end to end through
// the convert tool: .adj -> .pz (with -stats reporting bytes/edge), a
// mmap read back, and a decompressed comparison against the original.
func TestCLIConvertPZ(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	work := t.TempDir()

	adj := filepath.Join(work, "tw.adj")
	run(t, filepath.Join(bins, "pasgal-gen"), "-workload", "TW", "-scale", "0.05", "-o", adj)
	g, err := LoadGraph(adj, true)
	if err != nil {
		t.Fatal(err)
	}

	// Plain conversion: write -> mmap-read -> compare.
	pz := filepath.Join(work, "tw.pz")
	out := run(t, filepath.Join(bins, "pasgal-convert"), "-in", adj, "-out", pz, "-stats")
	if !strings.Contains(out, "bytes/edge") {
		t.Fatalf("convert -stats did not report bytes/edge:\n%s", out)
	}
	c, closeMap, err := MapCompressed(pz)
	if err != nil {
		t.Fatal(err)
	}
	defer closeMap()
	back := c.Decompress()
	if back.N != g.N || back.M() != g.M() {
		t.Fatalf("mmap round trip: n=%d m=%d, want n=%d m=%d", back.N, back.M(), g.N, g.M())
	}
	for v := 0; v <= g.N; v++ {
		if back.Offsets[v] != g.Offsets[v] {
			t.Fatalf("offsets[%d] differ after round trip", v)
		}
	}
	for i := range g.Edges {
		if back.Edges[i] != g.Edges[i] {
			t.Fatalf("edges[%d] differ after round trip", i)
		}
	}

	// Relabeled conversion permutes ids, so only the shape is compared;
	// the BFS reach count from the relabeled image of vertex 0's image is
	// checked against the original through the library relabel.
	pzr := filepath.Join(work, "tw-relabel.pz")
	run(t, filepath.Join(bins, "pasgal-convert"), "-in", adj, "-out", pzr, "-relabel")
	cr, closeR, err := MapCompressed(pzr)
	if err != nil {
		t.Fatal(err)
	}
	defer closeR()
	if cr.NumVertices() != g.N || cr.NumArcs() != len(g.Edges) {
		t.Fatalf("relabeled .pz shape: n=%d m=%d, want n=%d m=%d",
			cr.NumVertices(), cr.NumArcs(), g.N, len(g.Edges))
	}
	rg, perm := RelabelByDegree(g)
	want, _, err := BFS(rg, perm[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := BFS(cr, perm[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("relabeled compressed BFS differs at vertex %d: %d vs %d", v, got[v], want[v])
		}
	}

	// LoadGraph's generic dispatcher also understands .pz (decompressing).
	lg, err := LoadGraph(pz, true)
	if err != nil {
		t.Fatal(err)
	}
	if lg.N != g.N || lg.M() != g.M() {
		t.Fatalf("LoadGraph(.pz): n=%d m=%d, want n=%d m=%d", lg.N, lg.M(), g.N, g.M())
	}
}

// TestCLITrace covers pasgal-bench's output paths: `-trace` must emit a
// loadable Chrome trace, `-json` a result file, and the pprof hooks their
// profiles. What the repository benchmark measures is not a pasgal-bench
// experiment: `-exp serve` and its siblings are unknown and exit 2, as is
// the deleted union–find vs LDD study, `-exp conn`.
func TestCLITrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	work := t.TempDir()
	benchBin := filepath.Join(bins, "pasgal-bench")

	traceDir := filepath.Join(work, "trace")
	resultJSON := filepath.Join(work, "new.json")
	out := run(t, benchBin, "-exp", "bfs", "-scale", "0.02", "-reps", "1",
		"-graphs", "REC,TW", "-trace", traceDir, "-json", resultJSON,
		"-cpuprofile", filepath.Join(work, "cpu.pprof"),
		"-memprofile", filepath.Join(work, "mem.pprof"))
	for _, want := range []string{"rounds.log", "events.jsonl", "chrome_trace.json"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bench did not report writing %s:\n%s", want, out)
		}
	}

	// The Chrome trace must be valid JSON with a traceEvents array holding
	// complete ("X") round slices — the shape chrome://tracing loads.
	raw, err := os.ReadFile(filepath.Join(traceDir, "chrome_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var chromeTrace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chromeTrace); err != nil {
		t.Fatalf("chrome_trace.json is not valid JSON: %v", err)
	}
	slices := 0
	for _, ev := range chromeTrace.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatalf("chrome trace has no round slices among %d events", len(chromeTrace.TraceEvents))
	}
	for _, prof := range []string{"cpu.pprof", "mem.pprof"} {
		if st, err := os.Stat(filepath.Join(work, prof)); err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", prof, err)
		}
	}

	var records []struct {
		Experiment string `json:"experiment"`
		Results    []struct{ Graph string }
	}
	if err := json.Unmarshal(mustRead(t, resultJSON), &records); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	if len(records) != 1 || records[0].Experiment != "bfs" || len(records[0].Results) != 2 {
		t.Fatalf("-json records = %+v, want one bfs record over REC and TW", records)
	}

	for _, exp := range []string{"serve", "queries", "compress", "updates", "build", "conn"} {
		err := exec.Command(benchBin, "-exp", exp).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("pasgal-bench -exp %s: %v, want exit code 2", exp, err)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	for _, c := range [][]string{
		{filepath.Join(bins, "pasgal")}, // no input
		{filepath.Join(bins, "pasgal"), "-algo", "nope", "-workload", "NA"},
		{filepath.Join(bins, "pasgal-gen"), "-workload", "NOPE", "-o", "x.adj"},
		{filepath.Join(bins, "pasgal-convert"), "-in", "missing.adj", "-out", "x.bin"},
		{filepath.Join(bins, "pasgal-bench"), "-exp", "nope"},
		{filepath.Join(bins, "pasgal-stats")},
	} {
		if err := exec.Command(c[0], c[1:]...).Run(); err == nil {
			t.Fatalf("%v: expected non-zero exit", c)
		}
	}
}

// TestCLIVetJSON is the golden-output test for pasgal-vet -json: the
// machine-readable findings for the mixed fixture must match exactly —
// file, position, rule, message, and function are a stable contract for
// editor and CI integrations, and no finding carries a field beyond them.
func TestCLIVetJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)

	const pattern = "./internal/lint/testdata/src/mixed"
	out, err := exec.Command(filepath.Join(bins, "pasgal-vet"), "-json", pattern).Output()
	// Findings are expected: exit status 1, not 0 and not 2.
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("pasgal-vet -json %s: err=%v, want exit 1\n%s", pattern, err, out)
	}
	var got []map[string]any
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("invalid JSON from pasgal-vet: %v\n%s", err, out)
	}

	want := []map[string]any{
		{
			"file":     "internal/lint/testdata/src/mixed/mixed.go",
			"line":     float64(22),
			"col":      float64(2),
			"rule":     "mixed-access",
			"message":  "hits is accessed atomically (e.g. internal/lint/testdata/src/mixed/mixed.go:21:19) but plainly written here",
			"function": "bad",
		},
		{
			"file":     "internal/lint/testdata/src/mixed/mixed.go",
			"line":     float64(23),
			"col":      float64(2),
			"rule":     "mixed-access",
			"message":  "hits is accessed atomically (e.g. internal/lint/testdata/src/mixed/mixed.go:21:19) but plainly written here",
			"function": "bad",
		},
		{
			"file":     "internal/lint/testdata/src/mixed/mixed.go",
			"line":     float64(35),
			"col":      float64(8),
			"rule":     "mixed-access",
			"message":  "global is accessed atomically (e.g. internal/lint/testdata/src/mixed/mixed.go:38:19) but plainly read here inside a goroutine/parallel closure",
			"function": "badConcurrentRead",
		},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if _, ok := got[i]["callPath"]; ok {
			t.Errorf("finding %d has a callPath key: %v", i, got[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Errorf("finding %d has keys %v, want exactly those of %v", i, got[i], want[i])
		}
		for k, v := range want[i] {
			if got[i][k] != v {
				t.Errorf("finding %d %s = %v, want %v", i, k, got[i][k], v)
			}
		}
	}
}

// TestCLIServeEndToEnd exercises the serving binaries as a pair: boot
// pasgal-serve on an ephemeral port, drive it with pasgal-loadgen (JSON
// report), query it directly, then SIGTERM and watch the graceful drain.
func TestCLIServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	work := t.TempDir()

	srv := exec.Command(filepath.Join(bins, "pasgal-serve"),
		"-listen", "127.0.0.1:0", "-workload", "TW", "-scale", "0.1")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill(); srv.Wait() })

	// The daemon prints its bound address once the listener is up.
	var addr string
	var bootLog strings.Builder
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		bootLog.WriteString(line + "\n")
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr = strings.Fields(rest)[0]
			// Without -max-concurrent the server admits one computation
			// at a time, and the line must say so.
			if !strings.Contains(rest, "admission 1 ") {
				t.Errorf("default listening line %q does not state admission 1", line)
			}
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening line from pasgal-serve:\n%s", bootLog.String())
	}

	report := filepath.Join(work, "load.json")
	out := run(t, filepath.Join(bins, "pasgal-loadgen"),
		"-url", "http://"+addr, "-clients", "4", "-requests", "40",
		"-seed", "1", "-json", report)
	if !strings.Contains(out, "queries/sec") || !strings.Contains(out, "0 errors") {
		t.Fatalf("loadgen output: %s", out)
	}
	var rep struct {
		Requests int     `json:"requests"`
		Errors   int     `json:"errors"`
		QPS      float64 `json:"qps"`
		P99      float64 `json:"p99"`
	}
	if err := json.Unmarshal(mustRead(t, report), &rep); err != nil {
		t.Fatalf("load report: %v", err)
	}
	if rep.Requests != 40 || rep.Errors != 0 || rep.QPS <= 0 || rep.P99 <= 0 {
		t.Fatalf("implausible load report: %+v", rep)
	}

	// One direct query round-trip, as a client without the harness.
	resp, err := http.Get("http://" + addr + "/query/bfs?graph=TW&src=1")
	if err != nil {
		t.Fatal(err)
	}
	var bfs struct {
		Reached int `json:"reached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&bfs)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || bfs.Reached <= 0 {
		t.Fatalf("direct query: status %d err %v reached %d",
			resp.StatusCode, err, bfs.Reached)
	}

	// Graceful drain on SIGTERM: process exits 0 and says goodbye.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained := bootLog.String()
	for sc.Scan() {
		drained += sc.Text() + "\n"
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("pasgal-serve exit after SIGTERM: %v\n%s", err, drained)
	}
	if !strings.Contains(drained, "draining") || !strings.Contains(drained, "bye") {
		t.Fatalf("drain messages missing:\n%s", drained)
	}
}
