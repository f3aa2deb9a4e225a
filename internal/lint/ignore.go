package lint

import (
	"go/token"
	"path/filepath"
	"strings"
)

// ignoreSet records //pasgal:vet ignore=rule1,rule2 allowlist comments. A
// comment suppresses matching findings on its own line and on the line
// directly below it, so both trailing and leading placement work:
//
//	x++ //pasgal:vet ignore=parallel-capture -- guarded by once+Wait
//
//	//pasgal:vet ignore=mixed-access -- read happens after the join
//	x++
type ignoreSet struct {
	// byLine maps filename -> line -> set of ignored rules ("all" wildcard
	// allowed).
	byLine map[string]map[int]map[string]bool
}

const ignoreMarker = "pasgal:vet ignore="

func collectIgnores(pkg *Package) *ignoreSet {
	ig := &ignoreSet{byLine: map[string]map[int]map[string]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, ignoreMarker)
				if i < 0 {
					continue
				}
				spec := text[i+len(ignoreMarker):]
				// Everything up to whitespace or "--" is the rule list.
				if j := strings.IndexAny(spec, " \t"); j >= 0 {
					spec = spec[:j]
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := ig.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ig.byLine[pos.Filename] = lines
				}
				rules := lines[pos.Line]
				if rules == nil {
					rules = map[string]bool{}
					lines[pos.Line] = rules
				}
				for _, r := range strings.Split(spec, ",") {
					if r = strings.TrimSpace(r); r != "" {
						rules[r] = true
					}
				}
			}
		}
	}
	return ig
}

func (ig *ignoreSet) suppressed(f Finding) bool {
	lines := ig.byLine[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if rules := lines[line]; rules != nil && (rules[f.Rule] || rules["all"]) {
			return true
		}
	}
	return false
}

// position is a small helper converting a token.Pos to a Finding position.
func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// cite formats pos as file:line:col for a finding's message, with the file
// module-relative like Finding.File, so the text is the same in every
// checkout.
func (p *Package) cite(pos token.Pos) string {
	ps := p.Fset.Position(pos)
	ps.Filename = moduleRelative(p.Root, ps.Filename)
	return ps.String()
}

// moduleRelative returns file relative to the module root, slash-separated,
// or file itself when it lies outside root (or root is unknown).
func moduleRelative(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return file
}
