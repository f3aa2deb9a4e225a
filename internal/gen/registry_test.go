package gen

import (
	"testing"

	"pasgal/internal/graph"
)

func TestRegistryCoversPaperWorkloads(t *testing.T) {
	specs := Registry()
	if len(specs) != 22 {
		t.Fatalf("registry has %d workloads, want 22", len(specs))
	}
	wantDirected := map[string]bool{
		"LJ": true, "FB": false, "OK": false, "TW": true, "FS": false,
		"WK": true, "SD": true, "CW": true, "HL14": true, "HL12": true,
		"AF": true, "NA": true, "AS": true, "EU": true,
		"CH5": true, "GL5": true, "GL10": true, "COS5": true,
		"REC": true, "SREC": true, "TRCE": false, "BBL": false,
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate workload %s", s.Name)
		}
		seen[s.Name] = true
		if d, ok := wantDirected[s.Name]; !ok || d != s.Directed {
			t.Fatalf("%s: directedness %v unexpected", s.Name, s.Directed)
		}
		g := s.Build(0.02)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if g.Directed != s.Directed {
			t.Fatalf("%s: built graph directedness mismatch", s.Name)
		}
		if g.N < 100 {
			t.Fatalf("%s: suspiciously small (n=%d)", s.Name, g.N)
		}
	}
	for name := range wantDirected {
		if !seen[name] {
			t.Fatalf("workload %s missing", name)
		}
	}
}

func TestDiameterClasses(t *testing.T) {
	// The registry must reproduce the paper's diameter split: road/kNN/
	// synthetic large, social small (on the symmetrized graph).
	for _, name := range []string{"NA", "REC", "CH5"} {
		s := LookupSpec(name)
		g := s.Build(0.1)
		if d := graph.EstimateDiameter(g.Symmetrized(), 2, 1); d < 50 {
			t.Fatalf("%s: diameter %d too small for its class", name, d)
		}
	}
	for _, name := range []string{"LJ", "OK", "TW"} {
		s := LookupSpec(name)
		g := s.Build(0.1)
		if d := graph.EstimateDiameter(g.Symmetrized(), 2, 1); d > 30 {
			t.Fatalf("%s: diameter %d too large for its class", name, d)
		}
	}
}

func TestLookupSpec(t *testing.T) {
	if LookupSpec("REC") == nil || LookupSpec("nope") != nil {
		t.Fatal("LookupSpec broken")
	}
}

// TestRegistryDeterminism: building a workload twice yields identical
// graphs (bit-for-bit CSR equality).
func TestRegistryDeterminism(t *testing.T) {
	for _, s := range Registry() {
		a := s.Build(0.02)
		b := s.Build(0.02)
		if a.N != b.N || len(a.Edges) != len(b.Edges) {
			t.Fatalf("%s: shape differs across builds", s.Name)
		}
		for i := range a.Offsets {
			if a.Offsets[i] != b.Offsets[i] {
				t.Fatalf("%s: offsets differ", s.Name)
			}
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("%s: edges differ", s.Name)
			}
		}
	}
}

func TestPickSource(t *testing.T) {
	s := LookupSpec("TW")
	g := s.Build(0.05)
	src := PickSource(g)
	if g.Degree(src) != g.MaxDegree() {
		t.Fatal("PickSource did not pick a max-degree vertex")
	}
}
