package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module. It
// resolves module-internal imports by recursively loading the imported
// directory, serves sync and sync/atomic from embedded stubs, and hands out
// empty placeholder packages for everything else (see stubs.go). All of
// this is stdlib-only; no export data or x/tools machinery is required.
type Loader struct {
	ModuleRoot   string
	ModulePath   string
	IncludeTests bool

	fset    *token.FileSet
	pkgs    map[string]*Package       // keyed by absolute directory
	stubs   map[string]*types.Package // sync, sync/atomic
	fakes   map[string]*types.Package // everything else
	loading map[string]bool           // import-cycle guard, keyed by dir
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*Package{},
		stubs:      map[string]*types.Package{},
		fakes:      map[string]*types.Package{},
		loading:    map[string]bool{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return d, "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// importPathFor maps an absolute in-module directory to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path to its absolute directory, or
// "" if the path is not inside this module.
func (l *Loader) dirFor(importPath string) string {
	if importPath == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(importPath, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if pkg, ok := l.stubs[importPath]; ok {
		return pkg, nil
	}
	if src, ok := stubSources[importPath]; ok {
		pkg, err := buildStub(l.fset, importPath, src, l)
		if err != nil {
			return nil, err
		}
		l.stubs[importPath] = pkg
		return pkg, nil
	}
	if dir := l.dirFor(importPath); dir != "" && !l.loading[dir] {
		p, err := l.LoadDir(dir)
		if err == nil && p.Types != nil {
			return p.Types, nil
		}
	}
	if pkg, ok := l.fakes[importPath]; ok {
		return pkg, nil
	}
	pkg := types.NewPackage(importPath, placeholderName(importPath))
	pkg.MarkComplete()
	l.fakes[importPath] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks the package in dir (memoized). Test files
// are included only when IncludeTests is set, and external-test
// ("package foo_test") files are always skipped: the analyzers target the
// library code itself.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}
	p := &Package{
		Path:  l.importPathFor(dir),
		Root:  l.ModuleRoot,
		Fset:  l.fset,
		Files: files,
	}
	l.pkgs[dir] = p
	if len(files) == 0 {
		return p, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:    l,
		Error:       func(error) {}, // tolerate unresolved stdlib members
		FakeImportC: true,
	}
	l.loading[dir] = true
	tpkg, _ := conf.Check(p.Path, l.fset, files, info) // best-effort
	delete(l.loading, dir)
	p.Types = tpkg
	p.Info = info
	return p, nil
}

// Load expands the given patterns (a directory, or dir/... for the
// recursive form; "./..." covers the whole module) into package directories
// and loads each. Directories named testdata, vendor, or starting with "."
// or "_" are skipped by ... expansion unless the pattern root itself lies
// inside them, so `pasgal-vet ./...` ignores analyzer fixtures while
// `pasgal-vet ./internal/lint/testdata/...` vets them deliberately.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if len(p.Files) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: not a directory: %s", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		insideSkipped := strings.Contains(base, string(filepath.Separator)+"testdata")
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || (name == "testdata" && !insideSkipped)) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}
