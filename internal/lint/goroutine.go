package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutineAnalyzer keeps the simulation single-threaded. The kernel's
// determinism rests on one event at a time mutating one world; a go
// statement or a channel operation in sim-reachable code introduces a
// scheduler race that no seed controls, so results stop being a pure
// function of config. Concurrency belongs to the exempt layers — the
// runner's worker pool, the gateway's ingest, the fabric's leases —
// which sit outside every simulated point. The des kernel's process
// handoff is the one justified exception, suppressed in place with
// reasons: control passes directly between process goroutines, and
// exactly one of them runs simulation code at any instant.
var goroutineAnalyzer = &Analyzer{
	Name: "goroutine",
	Doc: "forbid go statements and channel operations (send, receive, " +
		"select, close) in sim-reachable code; the kernel is single-threaded " +
		"by design and concurrency belongs to runner/gateway/fabric/cmd",
	Run: func(prog *Program, p *Package) []Diagnostic {
		var diags []Diagnostic
		for _, n := range prog.reachableDeclared(p) {
			for _, body := range n.bodies {
				// A select statement is reported once; the channel
				// operations heading its cases are part of that finding,
				// not separate ones.
				inComm := make(map[ast.Node]bool)
				ast.Inspect(body, func(x ast.Node) bool {
					sel, ok := x.(*ast.SelectStmt)
					if !ok {
						return true
					}
					for _, cl := range sel.Body.List {
						if comm, ok := cl.(*ast.CommClause); ok && comm.Comm != nil {
							ast.Inspect(comm.Comm, func(y ast.Node) bool {
								inComm[y] = true
								return true
							})
						}
					}
					return true
				})
				report := func(pos token.Pos, what string) {
					chain := n.chainTo("")
					diags = append(diags, Diagnostic{
						Pos:   p.Fset.Position(pos),
						Rule:  "goroutine",
						Chain: chain,
						Message: what + " in sim-reachable code (" + renderChain(chain) +
							"); the kernel is single-threaded — concurrency belongs to runner/gateway/fabric/cmd",
					})
				}
				ast.Inspect(body, func(x ast.Node) bool {
					if inComm[x] {
						return true
					}
					switch x := x.(type) {
					case *ast.GoStmt:
						report(x.Pos(), "go statement starts a goroutine")
					case *ast.SendStmt:
						report(x.Arrow, "channel send")
					case *ast.UnaryExpr:
						if x.Op == token.ARROW {
							report(x.OpPos, "channel receive")
						}
					case *ast.SelectStmt:
						report(x.Pos(), "select over channels")
					case *ast.CallExpr:
						if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
							if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
								report(x.Pos(), "close of a channel")
							}
						}
					}
					return true
				})
			}
		}
		return diags
	},
}
