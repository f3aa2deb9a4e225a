package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"pasgal/internal/gen"
)

// byteSize renders a byte count human-readably.
func byteSize(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fmtTime(s float64) string {
	switch {
	case s == 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// PrintTimeTable prints a paper-style running-time table: one row per
// graph grouped by category, one column per implementation, plus geometric
// means per category. Sequential baselines are suffixed "*".
func PrintTimeTable(w io.Writer, title string, impls []string, results []Result) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	header := []string{"Cat", "Graph", "n", "m"}
	header = append(header, impls...)
	header = append(header, "Rounds(PASGAL)", "Rounds(best-lvlsync)")
	rows := [][]string{header}
	for _, cat := range gen.Categories() {
		for _, r := range results {
			if r.Category != cat {
				continue
			}
			row := []string{r.Category, r.Graph, fmtCount(r.N), fmtCount(r.M)}
			for _, impl := range impls {
				row = append(row, fmtTime(r.Times[impl]))
			}
			row = append(row, fmtRounds(r, pasgalOf(impls)), fmtRounds(r, levelSyncOf(impls)))
			rows = append(rows, row)
		}
	}
	// Geometric means per category.
	rows = append(rows, []string{"--"})
	for _, cat := range gen.Categories() {
		times := map[string][]float64{}
		for _, r := range results {
			if r.Category != cat {
				continue
			}
			for _, impl := range impls {
				if t := r.Times[impl]; t > 0 {
					times[impl] = append(times[impl], t)
				}
			}
		}
		if len(times) == 0 {
			continue
		}
		row := []string{"geomean", cat, "", ""}
		for _, impl := range impls {
			row = append(row, fmtTime(geomean(times[impl])))
		}
		rows = append(rows, row)
	}
	printAligned(w, rows)
	// Extras (e.g. TV aux memory).
	for _, r := range results {
		for k, v := range r.Extra {
			fmt.Fprintf(w, "   %-6s %s: %s\n", r.Graph, k, v)
		}
	}
}

// PrintSpeedupTable prints Figure 2's content: speedup of each parallel
// implementation over the sequential baseline (values < 1 mean slower than
// sequential, the paper's headline failure mode for level-synchronous
// systems on large-diameter graphs).
func PrintSpeedupTable(w io.Writer, title string, impls []string, results []Result) {
	seqImpl := ""
	for _, impl := range impls {
		if strings.HasSuffix(impl, "*") {
			seqImpl = impl
		}
	}
	fmt.Fprintf(w, "\n== %s (speedup over %s; <1 = slower than sequential) ==\n", title, seqImpl)
	header := []string{"Cat", "Graph"}
	for _, impl := range impls {
		if impl != seqImpl {
			header = append(header, impl)
		}
	}
	rows := [][]string{header}
	for _, cat := range gen.Categories() {
		for _, r := range results {
			if r.Category != cat {
				continue
			}
			base := r.Times[seqImpl]
			row := []string{r.Category, r.Graph}
			for _, impl := range impls {
				if impl == seqImpl {
					continue
				}
				if t := r.Times[impl]; t > 0 && base > 0 {
					row = append(row, fmt.Sprintf("%.2fx", base/t))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
	}
	printAligned(w, rows)
}

// pasgalOf returns the PASGAL implementation name in an impl set (exact
// "PASGAL" or the first "PASGAL-*" variant).
func pasgalOf(impls []string) string {
	for _, impl := range impls {
		if impl == "PASGAL" || strings.HasPrefix(impl, "PASGAL-") {
			return impl
		}
	}
	return impls[0]
}

// levelSyncOf returns the representative level-synchronous baseline of an
// impl set.
func levelSyncOf(impls []string) string {
	for _, impl := range impls {
		if impl == "GBBS" || impl == "GBBS-BF" {
			return impl
		}
	}
	return impls[0]
}

func fmtRounds(r Result, impl string) string {
	if m := r.Metrics[impl]; m != nil {
		return fmtCount(int(m.Rounds))
	}
	return "-"
}

func fmtCount(n int) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// printAligned renders rows with per-column padding.
func printAligned(w io.Writer, rows [][]string) {
	widths := map[int]int{}
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for c, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[c], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// SortResults orders results by the registry's category then name order.
func SortResults(results []Result) {
	order := map[string]int{}
	for i, s := range gen.Registry() {
		order[s.Name] = i
	}
	sort.SliceStable(results, func(i, j int) bool {
		return order[results[i].Graph] < order[results[j].Graph]
	})
}
