package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// agreeRuns is how many runs, each on its own seed, make one set: the
// acceptance procedure of the benchmark takes quartiles of ten.
const agreeRuns = 10

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// spawn runs one workload in a fresh process of this same binary, as the
// driver does, and parses its result line. The run's table goes to
// standard error so that it stays readable.
func spawn(e *env, name string, seed uint64, traced bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", fmt.Sprint(e.seconds), "-trace", t, "-out", e.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out)
		return nil, fmt.Errorf("%s seed %d trace %s: %w", name, seed, t, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	os.Stderr.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Fprintln(os.Stderr)
	var r resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("%s seed %d: run was not correct (%d failed of %d)", name, seed, r.Failed, r.Attempted)
	}
	return &r, nil
}

// runAll measures every workload once untraced and once traced and
// prints a JSON summary. The summary claims nothing: this benchmark
// exists to judge later changes.
func runAll(e *env) error {
	type row struct {
		Workload string             `json:"workload"`
		EndToEnd map[string]float64 `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
	}
	var rows []row
	for _, w := range workloads {
		r := row{Workload: w.name, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		for _, traced := range []bool{false, true} {
			line, err := spawn(e, w.name, e.seed, traced)
			if err != nil {
				return err
			}
			for name, m := range line.Metrics {
				if traced {
					r.PerLayer[name] = m.Value
				} else {
					r.EndToEnd[name] = m.Value
				}
			}
		}
		rows = append(rows, r)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Seed      uint64  `json:"seed"`
		Seconds   float64 `json:"seconds"`
		Workloads []row   `json:"workloads"`
		Claim     any     `json:"claim"`
	}{e.seed, e.seconds, rows, nil})
}

// runAgree runs two sets of agreeRuns untraced runs per workload on the
// same build, set one on seeds seed..seed+9 and set two on the ten after,
// and reports for every end-to-end metric × workload both medians, the
// quartile spread of each set as a share of its median, and the gap
// between the medians. A metric PASSes when both spreads and the gap (in
// the worse direction) stay within its bound; otherwise it is UNRESOLVED
// and its run must be lengthened, not its bound widened.
func runAgree(e *env) error {
	d, err := readDeclared(e)
	if err != nil {
		return err
	}
	unresolved := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < agreeRuns; i++ {
				line, err := spawn(e, w.name, e.seed+uint64(s*agreeRuns+i), false)
				if err != nil {
					return err
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s\n%-14s %10s %8s %10s %8s %8s %6s  %s\n", w.name,
			"metric", "median 1", "iqr 1", "median 2", "iqr 2", "gap", "bound", "verdict")
		for _, m := range d.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			gap := (mb - ma) / ma // worse is positive for "lower", negative for "higher"
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := "PASS"
			// setup_s is gated on the gap between medians only.
			if gap > m.Bound || (m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound)) {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%-14s %10.4f %7.1f%% %10.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				m.Name, ma, 100*spread(a), mb, 100*spread(b), 100*gap, 100*m.Bound, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric × workload pairs are UNRESOLVED", unresolved)
	}
	return nil
}
