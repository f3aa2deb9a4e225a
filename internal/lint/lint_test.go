package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures loads every package under testdata/src and checks the
// analyzer output exactly against the `// want:<rule>` markers in the
// fixture sources: each marked line must be flagged with that rule, and no
// unmarked line may be flagged. Allowlisted lines carry an ignore comment
// and no marker, so suppression is verified by the same equality. Every
// fixture package must carry a marker and every rule must have one, so a
// fixture whose rule is gone, or a rule whose fixture is gone, fails here.
func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{filepath.Join(loader.ModuleRoot, "internal", "lint", "testdata", "src") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	got := map[string]bool{}
	for _, pkg := range pkgs {
		marked := false
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "want:")
					if i < 0 {
						continue
					}
					rule := strings.TrimSpace(c.Text[i+len("want:"):])
					if j := strings.IndexAny(rule, " \t"); j >= 0 {
						rule = rule[:j]
					}
					pos := pkg.Fset.Position(c.Pos())
					want[fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, rule)] = true
					marked = true
				}
			}
		}
		if !marked {
			t.Errorf("fixture package %s has no want: marker", pkg.Path)
		}
		for _, f := range Analyze(pkg, nil) {
			got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("no want markers found in fixtures")
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing expected finding %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
	// Every rule must be exercised by at least one positive fixture case.
	for _, name := range AnalyzerNames() {
		found := false
		for k := range want {
			if strings.HasSuffix(k, ":"+name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rule %s has no positive fixture case", name)
		}
	}
}

// TestRuleSelection checks that restricting Rules drops other analyzers'
// findings.
func TestRuleSelection(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(loader.ModuleRoot, "internal", "lint", "testdata", "src", "mixed")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Analyze(pkg, []string{"wait-group-misuse"})); n != 0 {
		t.Fatalf("mixed fixture should have no wait-group-misuse findings, got %d", n)
	}
	if n := len(Analyze(pkg, []string{"mixed-access"})); n == 0 {
		t.Fatal("mixed fixture should have mixed-access findings")
	}
}

// TestRunAnnotatesFindings checks what Run adds on top of Analyze: every
// finding over the fixtures carries its module-relative file, line,
// column and enclosing declaration, and the list comes back sorted.
func TestRunAnnotatesFindings(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]string{"./internal/lint/testdata/src/..."}, Options{Dir: loader.ModuleRoot})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings over the fixtures")
	}
	closure := false // the mixed fixture's read inside a goroutine's closure
	for i, f := range findings {
		if f.File == "internal/lint/testdata/src/mixed/mixed.go" && f.Line == 35 {
			closure = true
			if f.Function != "badConcurrentRead" {
				t.Errorf("mixed.go:35 function = %q, want the declaration around the closure, badConcurrentRead", f.Function)
			}
		}
		if !strings.HasPrefix(f.File, "internal/lint/testdata/src/") || f.Line != f.Pos.Line || f.Col != f.Pos.Column || f.Function == "" {
			t.Errorf("finding %d not annotated: %+v", i, f)
		}
		if want := fmt.Sprintf("%s:%d:%d: [%s] ", f.Pos.Filename, f.Line, f.Col, f.Rule); !strings.HasPrefix(f.String(), want) {
			t.Errorf("finding %d renders as %q, want prefix %q", i, f.String(), want)
		}
		if i > 0 {
			p := findings[i-1]
			if p.File > f.File || (p.File == f.File && p.Line > f.Line) {
				t.Errorf("findings %d and %d out of order: %s:%d before %s:%d", i-1, i, p.File, p.Line, f.File, f.Line)
			}
		}
	}
	if !closure {
		t.Error("no finding at mixed.go:35")
	}
}

// TestFuncDisplayName covers the receiver forms a finding's function
// name can take.
func TestFuncDisplayName(t *testing.T) {
	src := `package p
func plain() {}
func (T) value() {}
func (t *T) pointer() {}
func (t *G[K]) generic() {}
func (m M[K, V]) generic2() {}
func (t (*T)) paren() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plain", "(T).value", "(*T).pointer", "(*G).generic", "(M).generic2", "(*T).paren"}
	for i, decl := range f.Decls {
		if got := funcDisplayName(decl.(*ast.FuncDecl)); got != want[i] {
			t.Errorf("decl %d: got %q, want %q", i, got, want[i])
		}
	}
}

// TestRepoIsClean runs the full suite over the module itself: every real
// finding must be fixed or explicitly allowlisted with a justification.
// This is the same gate `pasgal-vet ./...` enforces in scripts/check.sh.
func TestRepoIsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]string{"./..."}, Options{Dir: loader.ModuleRoot})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestIgnoreParsing covers the comment-parsing corner cases directly.
func TestIgnoreParsing(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(loader.ModuleRoot, "internal", "lint", "testdata", "src", "mixed")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ig := collectIgnores(pkg)
	if len(ig.byLine) == 0 {
		t.Fatal("expected at least one ignore comment in the mixed fixture")
	}
}
