package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
	"slices"
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
// Writes made while a captured mutex is write-locked are ordered and not
// flagged either (see lockedWrites), nor is a parallel.Do branch's write to
// a variable that branch owns (see doBranchOwns).
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
		locked := map[*ast.FuncLit]map[ast.Node]bool{}
		flag := func(stack []ast.Node, lit *ast.FuncLit, id *ast.Ident, v *types.Var) {
			if !doBranchOwns(pkg, concurrent, stack, lit, v) {
				out = append(out, capturedFinding(pkg, id, v))
			}
		}
		walkStack(file, func(stack []ast.Node) bool {
			n := stack[len(stack)-1]
			lit := nearestConcurrentLit(stack, concurrent)
			if lit == nil {
				return true
			}
			if locked[lit] == nil {
				locked[lit] = lockedWrites(pkg, lit)
			}
			if locked[lit][n] {
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
						flag(stack, lit, id, v)
					}
				}
			case *ast.IncDecStmt:
				if id, ok := unparen(st.X).(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[id].(*types.Var); ok && capturedBy(v, lit) {
						flag(stack, lit, id, v)
					}
				}
			}
			return true
		})
	}
	return out
}

// doBranchOwns reports whether lit, one function argument of a
// parallel.Do call, owns the captured variable v it writes. Do runs each
// argument once and returns only after all have finished, so the write is
// ordered before every use after the call; it races only with what runs
// during the call. lit owns v when v is a local variable of the function
// around the call, declared in the call's nearest enclosing concurrent
// literal if there is one (else every running copy of that literal would
// share v), and every use of v outside lit is in sequential code of that
// literal or function: not in another argument of the same call, and not
// in any other concurrent literal.
func doBranchOwns(pkg *Package, concurrent map[*ast.FuncLit]bool, stack []ast.Node, lit *ast.FuncLit, v *types.Var) bool {
	at := slices.Index(stack, ast.Node(lit))
	if at < 1 {
		return false
	}
	call, ok := stack[at-1].(*ast.CallExpr)
	if !ok || !isParallelLaunch(pkg, call) || calleeName(call) != "Do" {
		return false
	}
	// scope is the concurrent literal or the function declaration whose
	// body runs the call sequentially; v must be declared inside it.
	var scope ast.Node
	if c := nearestConcurrentLit(stack[:at-1], concurrent); c != nil {
		scope = c
	} else if fd, ok := stack[1].(*ast.FuncDecl); ok { // stack[0] is the file
		scope = fd
	}
	if scope == nil || v.Pos() < scope.Pos() || v.Pos() > scope.End() {
		return false
	}
	owned := true
	walkStack(scope, func(uses []ast.Node) bool {
		id, ok := uses[len(uses)-1].(*ast.Ident)
		if !ok || pkg.Info.Uses[id] != v || id.Pos() >= lit.Pos() && id.Pos() < lit.End() {
			return owned
		}
		inCall := id.Pos() >= call.Pos() && id.Pos() < call.End()
		if inner := nearestConcurrentLit(uses, concurrent); inCall || inner != nil && ast.Node(inner) != scope {
			owned = false
		}
		return owned
	})
	return owned
}

// calleeName returns the name of the function call invokes, qualified or
// not.
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// lockedWrites returns the assignment and inc/dec statements of lit that
// run while a mutex lit captures is write-locked: earlier in the same
// block, or in an enclosing block of lit, m.Lock() ran on a captured
// sync.Mutex or sync.RWMutex m and no m.Unlock() has run since. A
// deferred Unlock holds the lock to the end of the block; RLock orders
// nothing. As in epoch-misuse the walk is per block and in statement
// order: a Lock or Unlock inside a nested block leaves the enclosing
// block's state as it was, and a nested function literal starts with
// nothing held.
func lockedWrites(pkg *Package, lit *ast.FuncLit) map[ast.Node]bool {
	locked := map[ast.Node]bool{}
	var block func(stmts []ast.Stmt, held map[*types.Var]bool)
	var visit func(root ast.Node, held map[*types.Var]bool)
	block = func(stmts []ast.Stmt, outer map[*types.Var]bool) {
		held := map[*types.Var]bool{}
		maps.Copy(held, outer)
		for _, stmt := range stmts {
			if m, lock := mutexCall(pkg, stmt, lit); m != nil {
				if lock {
					held[m] = true
				} else {
					delete(held, m)
				}
				continue
			}
			visit(stmt, held)
		}
	}
	visit = func(root ast.Node, held map[*types.Var]bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				block(n.List, held)
				return false
			case *ast.CaseClause:
				block(n.Body, held)
				return false
			case *ast.CommClause:
				if n.Comm != nil {
					visit(n.Comm, held)
				}
				block(n.Body, held)
				return false
			case *ast.FuncLit:
				block(n.Body.List, nil)
				return false
			case *ast.AssignStmt, *ast.IncDecStmt:
				if len(held) > 0 {
					locked[n] = true
				}
			}
			return true
		})
	}
	block(lit.Body.List, nil)
	return locked
}

// mutexCall matches the statement `m.Lock()` (lock true) or `m.Unlock()`
// (lock false) on a sync.Mutex or sync.RWMutex variable m that lit
// captures, and returns m; any other statement returns nil.
func mutexCall(pkg *Package, stmt ast.Stmt, lit *ast.FuncLit) (m *types.Var, lock bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" {
		return nil, false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok || !capturedBy(v, lit) || !isMutex(v.Type()) {
		return nil, false
	}
	return v, sel.Sel.Name == "Lock"
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex, or a pointer
// to one.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	name := t.String()
	return name == "sync.Mutex" || name == "sync.RWMutex"
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
