// Package lint implements pasgal-vet, a PASGAL-specific concurrency
// static-analysis pass built only on the standard library's go/ast,
// go/parser, and go/types (no golang.org/x/tools dependency, preserving the
// repo's stdlib-only rule).
//
// Every headline result in PASGAL rests on lock-free shared-memory
// primitives — the hash-bag frontier, CAS-based union–find, and the
// fork-join runtime in internal/parallel — exactly the code where a single
// non-atomic access silently corrupts results under contention. The
// analyzers here encode the idioms those primitives and the serving layer
// rely on, where neither `go vet` nor the race tier looks:
//
//   - mixed-access: a struct field or package-level variable accessed via
//     sync/atomic in one place and by a plain write (or a plain read inside
//     a goroutine/parallel closure) elsewhere in the same package.
//   - parallel-capture: a closure passed to parallel.For / parallel.ForRange /
//     parallel.Do (or launched with `go`) that assigns to a variable declared
//     outside the closure without atomics.
//   - wait-group-misuse: wg.Add called inside the spawned goroutine rather
//     than before the launch, or a WaitGroup that is Add-ed but never waited
//     on.
//   - cancel-poll: a round/phase-boundary loop (one that records
//     Metrics.Round/AddPhase/AddBottomUp) inside a function holding a
//     core.Canceler that never calls Poll — a canceled context could not
//     stop that loop.
//   - epoch-misuse: an epoch snapshot used after its Release, or held
//     open across an explicit Compact (the internal/delta pinning
//     protocol; see docs/UPDATES.md).
//   - sentinel-error-compare: a sentinel error compared with == or != where
//     errors.Is is needed, so a wrapped error slips past the check.
//
// Each rule sees one type-checked package at a time (Analyze); Run loads
// the matched packages and analyzes them in parallel.
//
// Findings on provably safe hot paths are suppressed with an allowlist
// comment on the flagged line or the line above it:
//
//	//pasgal:vet ignore=<rule>[,<rule>...]  -- justification
//
// See docs/VETTING.md for each rule with minimal bad/good examples.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer. File/Line/Col are
// the stable machine-readable position (File is module-root-relative, so
// output is reproducible across checkouts); Pos keeps the absolute
// position for human-facing text output. Function names the declaration
// containing the finding.
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Rule     string         `json:"rule"`
	Message  string         `json:"message"`
	Function string         `json:"function,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// sortFindings orders findings by position, then rule, for stable output.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// Package is one loaded, type-checked package unit ready for analysis.
// Type-checking is tolerant: unresolved imports (most of the standard
// library is stubbed or faked) leave the affected expressions with invalid
// types, and the analyzers fall back to syntactic matching there.
type Package struct {
	Path  string
	Root  string // module root directory; messages cite files relative to it
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one vet rule: Run sees one type-checked package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkg *Package) []Finding
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MixedAccessAnalyzer(),
		ParallelCaptureAnalyzer(),
		WaitGroupAnalyzer(),
		CancelPollAnalyzer(),
		EpochMisuseAnalyzer(),
		SentinelErrorAnalyzer(),
	}
}

// funcDisplayName renders a function declaration's name the way findings
// report it: plain for functions, "(T).M" / "(*T).M" for methods.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + typeText(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// typeText renders the syntactic forms receiver types take.
func typeText(t ast.Expr) string {
	switch t := unparen(t).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.IndexExpr:
		return typeText(t.X)
	case *ast.IndexListExpr:
		return typeText(t.X)
	case *ast.SelectorExpr:
		return typeText(t.X) + "." + t.Sel.Name
	}
	return "?"
}

// AnalyzerNames returns the names of all registered rules.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Analyze runs the selected analyzers (all of them when rules is empty)
// over pkg and returns the surviving findings sorted by position, with
// //pasgal:vet ignore= suppressions already applied. It is the only code
// that runs rules.
func Analyze(pkg *Package, rules []string) []Finding {
	enabled := map[string]bool{}
	for _, r := range rules {
		enabled[r] = true
	}
	ig := collectIgnores(pkg)
	var out []Finding
	for _, a := range Analyzers() {
		if len(enabled) > 0 && !enabled[a.Name] {
			continue
		}
		for _, f := range a.Run(pkg) {
			if ig.suppressed(f) {
				continue
			}
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}
