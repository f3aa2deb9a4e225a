package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MixedAccessAnalyzer reports struct fields and variables that are accessed
// through sync/atomic in one place and by plain read/write elsewhere in the
// same package. Mixing the two silently forfeits every atomicity and
// ordering guarantee: the racing plain access can observe torn or stale
// values, and the race detector only catches it on schedules that actually
// interleave.
//
// To stay useful on real coordinator-style code, plain *writes* are always
// reported, while plain *reads* are reported only when they occur inside a
// goroutine or parallel closure — a plain read in straight-line code after
// the join is the standard (safe) way to collect results and would drown
// the signal. Fields are tracked per field object, so any instance of the
// struct matches; locals match within their function.
func MixedAccessAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "mixed-access",
		Doc:  "variable accessed both via sync/atomic and by plain read/write",
		Run:  runMixedAccess,
	}
}

func runMixedAccess(pkg *Package) []Finding {
	if pkg.Info == nil {
		return nil
	}
	// Pass 1: every object that is the target of an atomic.Xxx(&obj, ...)
	// call anywhere in the package, plus the &target argument nodes so pass
	// 2 can skip them.
	atomicSites := map[types.Object]token.Pos{}
	atomicArgs := map[ast.Node]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			target, ok := atomicCallTarget(pkg, call)
			if !ok {
				return true
			}
			atomicArgs[call.Args[0]] = true
			if key := accessKey(pkg, target); key != nil {
				if _, seen := atomicSites[key]; !seen {
					atomicSites[key] = target.Pos()
				}
			}
			return true
		})
	}
	if len(atomicSites) == 0 {
		return nil
	}
	// Pass 2: find plain accesses to those same objects.
	var out []Finding
	for _, file := range pkg.Files {
		concurrent := concurrentLits(pkg, file)
		walkStack(file, func(stack []ast.Node) bool {
			n := stack[len(stack)-1]
			if atomicArgs[n] {
				return false // the &target of an atomic call is not a plain access
			}
			var key types.Object
			switch e := n.(type) {
			case *ast.SelectorExpr:
				key = accessKey(pkg, e)
			case *ast.Ident:
				// Skip the Sel half of a selector (handled at the selector)
				// and declarations.
				if len(stack) >= 2 {
					if sel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && sel.Sel == e {
						return true
					}
				}
				if _, isDecl := pkg.Info.Defs[e]; isDecl {
					return true
				}
				key = accessKey(pkg, e)
			default:
				return true
			}
			if key == nil {
				return true
			}
			atomicAt, tracked := atomicSites[key]
			if !tracked {
				return true
			}
			kind := classifyAccess(stack)
			inConc := enclosingConcurrent(stack, concurrent)
			if kind == accessWrite || inConc {
				verb := "read"
				if kind == accessWrite {
					verb = "written"
				}
				where := ""
				if inConc {
					where = " inside a goroutine/parallel closure"
				}
				out = append(out, Finding{
					Pos:  pkg.position(n.Pos()),
					Rule: "mixed-access",
					Message: fmt.Sprintf(
						"%s is accessed atomically (e.g. %s) but plainly %s here%s",
						key.Name(), pkg.cite(atomicAt), verb, where),
				})
			}
			return true
		})
	}
	return out
}
