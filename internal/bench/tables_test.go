package bench

import (
	"strings"
	"testing"

	"pasgal/internal/core"
	"pasgal/internal/gen"
)

func TestByteSize(t *testing.T) {
	cases := map[int64]string{
		512:           "512B",
		2048:          "2.00KiB",
		3 << 20:       "3.00MiB",
		5 << 30:       "5.00GiB",
		1<<30 + 1<<29: "1.50GiB",
	}
	for in, want := range cases {
		if got := byteSize(in); got != want {
			t.Fatalf("byteSize(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtTime(t *testing.T) {
	cases := map[float64]string{
		0:       "-",
		5e-7:    "1µs",
		0.0005:  "500µs",
		0.005:   "5.00ms",
		0.25:    "250.00ms",
		3.14159: "3.142s",
	}
	for in, want := range cases {
		got := fmtTime(in)
		if in == 5e-7 {
			// Rounding of sub-µs values: just require the unit.
			if !strings.HasSuffix(got, "µs") {
				t.Fatalf("fmtTime(%v) = %q", in, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("fmtTime(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtCount(t *testing.T) {
	cases := map[int]string{
		7:             "7",
		9999:          "9999",
		10000:         "10.0K",
		2_500_000:     "2.50M",
		3_000_000_000: "3.00B",
	}
	for in, want := range cases {
		if got := fmtCount(in); got != want {
			t.Fatalf("fmtCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	var buf strings.Builder
	cfg := Config{Scale: 0.02, Reps: 1, Out: &buf}
	AblationTau(cfg)
	AblationTauSCC(cfg)
	AblationDirOpt(cfg)
	AblationSSSPPolicy(cfg)
	FrontierGrowth(cfg)
	Memory(Config{Scale: 0.02, Reps: 1, Out: &buf, Graphs: []string{"NA"}})
	out := buf.String()
	for _, want := range []string{"VGC budget", "direction optimization", "stepping policies",
		"tau", "bottom-up", "bellman-ford",
		"SCC reachability", "Frontier growth", "allocation volume", "TV/PASGAL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

// TestPaperShapeClaims is the regression test for the paper's headline:
// on large-diameter workloads, PASGAL's algorithms need far fewer global
// synchronizations than the level-synchronous baselines.
func TestPaperShapeClaims(t *testing.T) {
	for _, name := range []string{"REC", "NA"} {
		s := gen.LookupSpec(name)
		g := s.Build(0.1)
		r := RunBFS(name, s.Category, g, 1, core.Options{})
		pasgalRounds := r.Metrics["PASGAL"].Rounds
		gbbsRounds := r.Metrics["GBBS"].Rounds
		if pasgalRounds*5 >= gbbsRounds {
			t.Fatalf("%s BFS: PASGAL %d rounds, GBBS %d — VGC advantage lost",
				name, pasgalRounds, gbbsRounds)
		}
		rb := RunBCC(name, s.Category, g, 1, core.Options{})
		if rb.Metrics["PASGAL"].Rounds != 0 {
			t.Fatalf("%s BCC: FAST-BCC should use no frontier rounds, got %d",
				name, rb.Metrics["PASGAL"].Rounds)
		}
		if rb.Metrics["GBBS"].Rounds < 50 {
			t.Fatalf("%s BCC: BFS-based baseline rounds suspiciously low (%d)",
				name, rb.Metrics["GBBS"].Rounds)
		}
	}
}
