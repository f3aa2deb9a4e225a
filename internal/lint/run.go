package lint

import (
	"go/ast"
	"path/filepath"

	"pasgal/internal/parallel"
)

// Options configures a vet run.
type Options struct {
	// Dir anchors module discovery and relative patterns; "" means the
	// current working directory.
	Dir string
	// IncludeTests adds in-package _test.go files to each analyzed unit.
	IncludeTests bool
	// Rules selects a subset of analyzers by name; empty runs all.
	Rules []string
}

// Run loads the packages matched by patterns (e.g. "./...") and returns
// all findings, sorted, with allowlist suppressions applied. Packages are
// analyzed in parallel, one task each, through the library's own runtime;
// each finding then gets its module-relative file, line, column and
// enclosing function.
func Run(patterns []string, opts Options) ([]Finding, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	loader.IncludeTests = opts.IncludeTests
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs := make([]string, len(patterns))
	for i, p := range patterns {
		abs[i] = p
		if p != "..." && !filepath.IsAbs(p) {
			abs[i] = dir + "/" + p
		}
	}
	pkgs, err := loader.Load(abs)
	if err != nil {
		return nil, err
	}
	perPkg := make([][]Finding, len(pkgs))
	parallel.For(len(pkgs), 1, func(i int) {
		fs := Analyze(pkgs[i], opts.Rules)
		annotate(pkgs[i], fs)
		perPkg[i] = fs
	})
	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// annotate fills each of pkg's findings with its module-relative file
// path, line, column and enclosing function.
func annotate(pkg *Package, findings []Finding) {
	for i := range findings {
		f := &findings[i]
		f.File = moduleRelative(pkg.Root, f.Pos.Filename)
		f.Line = f.Pos.Line
		f.Col = f.Pos.Column
		f.Function = enclosingFunc(pkg, f)
	}
}

// enclosingFunc names the function declaration in pkg containing the
// finding.
func enclosingFunc(pkg *Package, f *Finding) string {
	for _, file := range pkg.Files {
		if pkg.Fset.Position(file.Pos()).Filename != f.Pos.Filename {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			from := pkg.Fset.Position(fd.Pos())
			to := pkg.Fset.Position(fd.End())
			if f.Pos.Line >= from.Line && f.Pos.Line <= to.Line {
				return funcDisplayName(fd)
			}
		}
	}
	return ""
}
