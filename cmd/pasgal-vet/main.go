// Command pasgal-vet runs the PASGAL-specific concurrency static-analysis
// suite (internal/lint) over module packages. It exits non-zero when any
// finding survives the //pasgal:vet ignore= allowlist, which makes it
// suitable as a CI gate (see scripts/check.sh).
//
// Usage:
//
//	pasgal-vet [flags] [patterns ...]
//
// Patterns are package directories or recursive dir/... forms; the default
// is ./... (the whole module, skipping testdata). Examples:
//
//	pasgal-vet ./...
//	pasgal-vet -json ./internal/hashbag ./internal/parallel
//	pasgal-vet -rules mixed-access,parallel-capture ./internal/...
//	pasgal-vet ./internal/lint/testdata/src/...   # vets the fixtures: must fail
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pasgal/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	list := flag.Bool("list", false, "list the available rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pasgal-vet [flags] [patterns ...]\n\nPASGAL concurrency vet: %s\n\nFlags:\n",
			strings.Join(lint.AnalyzerNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	opts := lint.Options{IncludeTests: *tests}
	if *rules != "" {
		for _, r := range strings.Split(*rules, ",") {
			if r = strings.TrimSpace(r); r != "" {
				if !validRule(r) {
					fmt.Fprintf(os.Stderr, "pasgal-vet: unknown rule %q (have: %s)\n",
						r, strings.Join(lint.AnalyzerNames(), ", "))
					os.Exit(2)
				}
				opts.Rules = append(opts.Rules, r)
			}
		}
	}

	findings, err := lint.Run(flag.Args(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasgal-vet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "pasgal-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "pasgal-vet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func validRule(name string) bool {
	for _, n := range lint.AnalyzerNames() {
		if n == name {
			return true
		}
	}
	return false
}
