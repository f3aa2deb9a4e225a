package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// walkStack traverses root in source order keeping the ancestor stack; fn
// sees the stack with the current node on top and returns false to prune
// the subtree.
func walkStack(root ast.Node, fn func(stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// pkgOf resolves a selector base identifier to the import path of the
// package it names, or "" if it is not a package qualifier. Falls back to
// the identifier's own name when type information is missing, so fixture
// code still matches syntactically.
func pkgOf(pkg *Package, x ast.Expr) string {
	id, ok := unparen(x).(*ast.Ident)
	if !ok {
		return ""
	}
	if pkg.Info != nil {
		if obj, ok := pkg.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // a real value, not a package qualifier
		}
	}
	return id.Name // untyped fallback: best-effort by name
}

// isAtomicPkg reports whether an import path (or syntactic fallback name)
// denotes sync/atomic.
func isAtomicPkg(path string) bool {
	return path == "sync/atomic" || path == "atomic"
}

// atomicCallTarget reports whether call is a sync/atomic package-level
// operation (atomic.AddInt64 & co.) and returns the expression whose
// address is taken as the first argument.
func atomicCallTarget(pkg *Package, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isAtomicPkg(pkgOf(pkg, sel.X)) {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	addr, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || addr.Op.String() != "&" {
		return nil, false
	}
	return unparen(addr.X), true
}

// accessKey resolves an lvalue-ish expression to the object whose memory it
// denotes: a struct field (shared across all instances — the granularity
// the mixed-access rule wants) or a declared variable. Index expressions
// return the indexed object's key only for package-level slices; element
// identity is otherwise untrackable and yields nil.
func accessKey(pkg *Package, e ast.Expr) types.Object {
	if pkg.Info == nil {
		return nil
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e]; ok {
			if v, ok := obj.(*types.Var); ok {
				return v
			}
		}
		if obj, ok := pkg.Info.Defs[e]; ok {
			if v, ok := obj.(*types.Var); ok {
				return v
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		// Qualified package-level var (pkg.Var).
		if obj, ok := pkg.Info.Uses[e.Sel]; ok {
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				return v
			}
		}
	}
	return nil
}

// concurrentLits returns the set of function literals in file that run
// concurrently with their enclosing function: bodies of `go func(){...}()`
// statements and literals passed to the fork-join runtime
// (parallel.For/ForRange/Do and the internal/parallel package generally).
// Literals nested inside such a literal are concurrent too; callers test
// membership over the whole ancestor stack.
func concurrentLits(pkg *Package, file *ast.File) map[*ast.FuncLit]bool {
	set := map[*ast.FuncLit]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				set[lit] = true
			}
		case *ast.CallExpr:
			if isParallelLaunch(pkg, n) {
				for _, arg := range n.Args {
					if lit, ok := unparen(arg).(*ast.FuncLit); ok {
						set[lit] = true
					}
				}
			}
		}
		return true
	})
	return set
}

// parallelLaunchFuncs are the internal/parallel entry points that execute
// their function-literal arguments on other goroutines. The cancellable
// variants run their bodies on exactly the same workers. ForRangeTeam's
// start runs on the caller, but is checked like its body: a start that
// writes a captured variable is read by every chunk.
var parallelLaunchFuncs = map[string]bool{
	"For": true, "ForRange": true, "Do": true,
	"ForCancel": true, "ForRangeCancel": true, "ForRangeTeam": true,
}

// isParallelLaunch reports whether call invokes one of the fork-join
// runtime's launch functions (matched by the imported package path ending
// in "internal/parallel", or a package literally named parallel as the
// untyped fallback).
func isParallelLaunch(pkg *Package, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if !parallelLaunchFuncs[fun.Sel.Name] {
			return false
		}
		path := pkgOf(pkg, fun.X)
		return path == "parallel" || strings.HasSuffix(path, "/parallel")
	case *ast.Ident:
		// Unqualified call from inside the runtime package itself.
		return parallelLaunchFuncs[fun.Name] && pkg.Types != nil && pkg.Types.Name() == "parallel"
	}
	return false
}

// enclosingConcurrent reports whether any ancestor on the stack is a
// concurrent function literal from set.
func enclosingConcurrent(stack []ast.Node, set map[*ast.FuncLit]bool) bool {
	for _, n := range stack {
		if lit, ok := n.(*ast.FuncLit); ok && set[lit] {
			return true
		}
	}
	return false
}

// writeKind classifies how the expression at the top of the stack is
// accessed: "" for a plain read, "assigned" / "incremented" / "compound"
// for writes. The stack's last element must be the expression itself.
type accessKind int

const (
	accessRead accessKind = iota
	accessWrite
)

func classifyAccess(stack []ast.Node) accessKind {
	if len(stack) < 2 {
		return accessRead
	}
	expr := stack[len(stack)-1]
	switch parent := stack[len(stack)-2].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if unparen(lhs) == expr {
				return accessWrite
			}
		}
	case *ast.IncDecStmt:
		if unparen(parent.X) == expr {
			return accessWrite
		}
	}
	return accessRead
}
