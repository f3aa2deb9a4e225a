package bench

import (
	"strings"
	"testing"

	"pasgal/internal/core"
	"pasgal/internal/gen"
)

func smallConfig(buf *strings.Builder, graphs ...string) Config {
	return Config{Scale: 0.03, Reps: 1, Out: buf, Graphs: graphs}
}

func TestRunnersProduceResults(t *testing.T) {
	s := gen.LookupSpec("NA")
	g := s.Build(0.03)
	for _, check := range []struct {
		name  string
		impls []string
		run   func() Result
	}{
		{"bfs", BFSImpls, func() Result { return RunBFS("NA", "Road", g, 1, core.Options{}) }},
		{"scc", SCCImpls, func() Result { return RunSCC("NA", "Road", g, 1, core.Options{}) }},
		{"bcc", BCCImpls, func() Result { return RunBCC("NA", "Road", g, 1, core.Options{}) }},
		{"sssp", SSSPImpls, func() Result { return RunSSSP("NA", "Road", g, 1, core.Options{}) }},
	} {
		r := check.run()
		for _, impl := range check.impls {
			if r.Times[impl] <= 0 {
				t.Fatalf("%s: no time recorded for %s", check.name, impl)
			}
		}
	}
}

func TestExperimentsSmoke(t *testing.T) {
	var buf strings.Builder
	Tab1(smallConfig(&buf, "LJ", "NA"))
	TableBFS(smallConfig(&buf, "NA"))
	TableSCC(smallConfig(&buf, "LJ", "FB")) // FB undirected: must be skipped
	TableBCC(smallConfig(&buf, "TRCE"))
	TableSSSP(smallConfig(&buf, "NA"))
	AblationBag(smallConfig(&buf))
	out := buf.String()
	for _, want := range []string{
		"Table 1", "BFS running times", "SCC running times",
		"BCC running times", "SSSP running times", "geomean",
		"undirected graph (SCC n/a)", "frontier lists vs flat",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiment output missing %q\n%s", want, out)
		}
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf strings.Builder
	Fig1(smallConfig(&buf, "TW"))
	if !strings.Contains(buf.String(), "Figure 1") ||
		!strings.Contains(buf.String(), "PASGAL@1") {
		t.Fatalf("fig1 output wrong:\n%s", buf.String())
	}
}
