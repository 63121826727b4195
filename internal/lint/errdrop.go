package lint

import (
	"go/ast"
	"go/types"
)

// errdropAnalyzer guards two error-return contracts that the fuzzers and
// the fabric's resume guarantee depend on:
//
//   - the four fuzz-tested decoders (tmio.DecodeStreamRecord,
//     tmio.DecodeFrame, trace.DecodeRecord, fabric.DecodeMsg) promise a
//     zero value exactly when they return an error; a caller that drops
//     the error happily processes that zero value as data;
//   - Close/Flush on files and buffered writers inside internal/fabric
//     and internal/runner (the cache write path): a cache entry whose
//     final flush failed silently breaks kill/restart resume, which
//     reads accepted results back from the cache, and can poison the
//     shared content-addressed cache.
//
// Unlike the taint rules this applies module-wide, including the exempt
// packages — the decoders' most important call sites are the gateway and
// the fabric themselves. A discard is an expression statement, a go or
// defer of the call, or a blank assignment of the error result.
var errdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc: "forbid discarding the error from the fuzz-tested decoders " +
		"(tmio.DecodeStreamRecord, tmio.DecodeFrame, trace.DecodeRecord, fabric.DecodeMsg) and " +
		"from Close/Flush on files and buffered writers in the fabric/runner " +
		"cache write path",
	Run: func(prog *Program, p *Package) []Diagnostic {
		var diags []Diagnostic
		report := func(pos ast.Node, msg string) {
			diags = append(diags, Diagnostic{Pos: p.Fset.Position(pos.Pos()), Rule: "errdrop", Message: msg})
		}
		checkCall := func(x ast.Expr) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := staticCallee(p, call)
			if fn == nil {
				return
			}
			if name, ok := decoderName(fn); ok {
				report(call, "discarded error from "+name+"; the decode contract is "+
					"zero-value-on-error — a dropped error turns a torn frame into data")
				return
			}
			if closeFlushTarget(p, fn) {
				report(call, "discarded error from "+dispName(fn)+" in the cache "+
					"write path; an unchecked "+fn.Name()+" breaks the kill/restart resume guarantee")
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.ExprStmt:
					checkCall(x.X)
				case *ast.DeferStmt:
					checkCall(x.Call)
				case *ast.GoStmt:
					checkCall(x.Call)
				case *ast.AssignStmt:
					if len(x.Rhs) != 1 {
						return true
					}
					call, ok := x.Rhs[0].(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := staticCallee(p, call)
					if fn == nil || len(x.Lhs) == 0 {
						return true
					}
					// The error is the last result; discarded when the
					// last LHS is blank.
					if !isBlank(x.Lhs[len(x.Lhs)-1]) {
						return true
					}
					if name, ok := decoderName(fn); ok {
						report(call, "error from "+name+" assigned to _; the decode contract is "+
							"zero-value-on-error — a dropped error turns a torn frame into data")
					} else if closeFlushTarget(p, fn) {
						report(call, "error from "+dispName(fn)+" assigned to _ in the cache "+
							"write path; an unchecked "+fn.Name()+" breaks the kill/restart resume guarantee")
					}
				}
				return true
			})
		}
		return diags
	},
}

// staticCallee resolves a call to its statically known target function,
// if any.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// decoderName reports whether fn is one of the four fuzz-tested
// decoders, returning its display name.
func decoderName(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	path := fn.Pkg().Path()
	switch {
	case fn.Name() == "DecodeStreamRecord" && pathIs(path, "internal/tmio"):
		return "tmio.DecodeStreamRecord", true
	case fn.Name() == "DecodeFrame" && pathIs(path, "internal/tmio"):
		return "tmio.DecodeFrame", true
	case fn.Name() == "DecodeRecord" && pathIs(path, "internal/trace"):
		return "trace.DecodeRecord", true
	case fn.Name() == "DecodeMsg" && pathIs(path, "internal/fabric"):
		return "fabric.DecodeMsg", true
	}
	return "", false
}

// closeFlushTarget reports whether fn is an error-returning Close or
// Flush on an *os.File or *bufio.Writer called from inside the fabric or
// runner packages — the cache write path.
func closeFlushTarget(p *Package, fn *types.Func) bool {
	if !pathIs(p.Path, "internal/fabric") && !pathIs(p.Path, "internal/runner") {
		return false
	}
	if fn.Name() != "Close" && fn.Name() != "Flush" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Results().Len() == 0 {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "os" && name == "File") || (pkg == "bufio" && name == "Writer")
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
