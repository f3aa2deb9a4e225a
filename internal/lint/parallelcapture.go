package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ParallelCaptureAnalyzer reports assignments, inside closures that run on
// other goroutines (bodies passed to parallel.For / parallel.ForRange /
// parallel.Do, or launched with `go`), to variables declared outside the
// closure. Two loop iterations scheduled on different workers then race on
// the same memory cell: the classic `sum += x` / `out = append(out, x)`
// reduction bug that a sequential run never exposes.
//
// Index-disjoint writes (`out[i] = ...`) are the sanctioned pattern and are
// not flagged — each iteration owns its own element. Writes through
// sync/atomic are calls, not assignments, so they never trigger the rule.
func ParallelCaptureAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "parallel-capture",
		Doc:  "closure passed to parallel.For/Do or go-launched mutates a captured variable",
		Run:  runParallelCapture,
	}
}

func runParallelCapture(pkg *Package) []Finding {
	if pkg.Info == nil {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		concurrent := concurrentLits(pkg, file)
		if len(concurrent) == 0 {
			continue
		}
		walkStack(file, func(stack []ast.Node) bool {
			n := stack[len(stack)-1]
			lit := nearestConcurrentLit(stack, concurrent)
			if lit == nil {
				return true
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					// `x := ...` declares a fresh variable — only flag
					// identifiers that resolve to an existing (captured)
					// one.
					obj := pkg.Info.Uses[id]
					if v, ok := obj.(*types.Var); ok && capturedBy(v, lit) {
						out = append(out, capturedFinding(pkg, id, v))
					}
				}
			case *ast.IncDecStmt:
				if id, ok := unparen(st.X).(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[id].(*types.Var); ok && capturedBy(v, lit) {
						out = append(out, capturedFinding(pkg, id, v))
					}
				}
			}
			return true
		})
	}
	return out
}

// nearestConcurrentLit returns the innermost ancestor function literal on
// the stack that runs concurrently, or nil.
func nearestConcurrentLit(stack []ast.Node, set map[*ast.FuncLit]bool) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok && set[lit] {
			return lit
		}
	}
	return nil
}

// capturedBy reports whether v is declared outside lit (and therefore
// captured by reference). Package-level variables count: mutating one from
// a parallel body is just as racy.
func capturedBy(v *types.Var, lit *ast.FuncLit) bool {
	if v.IsField() {
		return false // field writes go through a captured *pointer*; out of scope
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

func capturedFinding(pkg *Package, id *ast.Ident, v *types.Var) Finding {
	return Finding{
		Pos:  pkg.position(id.Pos()),
		Rule: "parallel-capture",
		Message: fmt.Sprintf(
			"captured variable %s (declared at %s) is assigned inside a goroutine/parallel closure; use an atomic, a per-chunk slot, or a post-join reduction",
			id.Name, pkg.cite(v.Pos())),
	}
}
