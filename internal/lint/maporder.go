package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// maporderAnalyzer catches the bug class PR 5 fixed by hand in
// internal/pfs: ranging over a Go map in simulation-reachable code and
// letting the (deliberately randomized) iteration order leak into the
// result. A map range is fine when the body is order-independent
// (counting, set membership, per-key writes); it is a determinism bug
// the moment the body appends to a slice, schedules events, writes
// output, or accumulates floating-point values — each of those makes the
// outcome a function of iteration order, so two runs of the same config
// diverge and the SHA-256 cache serves a result no rerun can reproduce.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "forbid ranging over a map in sim-reachable code where the loop " +
		"body appends to a slice, schedules events, writes output, or " +
		"accumulates floats; iterate a sorted or first-appearance order instead",
	Run: func(prog *Program, p *Package) []Diagnostic {
		var diags []Diagnostic
		for _, n := range prog.reachableDeclared(p) {
			for _, body := range n.bodies {
				ast.Inspect(body, func(x ast.Node) bool {
					rs, ok := x.(*ast.RangeStmt)
					if !ok {
						return true
					}
					t := p.Info.TypeOf(rs.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					effects := orderEffects(p, rs.Body)
					if len(effects) == 0 {
						return true
					}
					chain := n.chainTo("")
					diags = append(diags, Diagnostic{
						Pos:   p.Fset.Position(rs.Pos()),
						Rule:  "maporder",
						Chain: chain,
						Message: "range over " + types.TypeString(t, shortQualifier) +
							" " + strings.Join(effects, " and ") +
							"; map iteration order is randomized per run — iterate a sorted" +
							" or first-appearance order instead (" + renderChain(chain) + ")",
					})
					return true
				})
			}
		}
		return diags
	},
}

// shortQualifier renders package-qualified type names with the package's
// base name, matching the chain rendering.
func shortQualifier(p *types.Package) string { return p.Name() }

// scheduleNames are method names that enqueue work on the simulation
// kernel; calling one per map-range iteration orders the event heap by
// map order. Then chains a continuation onto a completion, which is
// released in registration order.
var scheduleNames = map[string]bool{"Schedule": true, "After": true, "Spawn": true, "Then": true}

// orderEffects classifies what an iteration-order-dependent loop body
// does, in stable order. Empty means the body looks order-independent.
func orderEffects(p *Package, body ast.Node) []string {
	found := map[string]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			switch fun := unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
					found["appends to a slice"] = true
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
					sig, _ := fn.Type().(*types.Signature)
					isMethod := sig != nil && sig.Recv() != nil
					if isMethod && scheduleNames[name] {
						found["schedules events"] = true
					}
					if isMethod && (name == "Write" || name == "WriteString" ||
						name == "WriteByte" || name == "WriteRune" ||
						name == "Printf" || name == "Print") {
						found["writes output"] = true
					}
					if !isMethod && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
						(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
						found["writes output"] = true
					}
				}
			}
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range x.Lhs {
					if isFloat(p.Info.TypeOf(lhs)) {
						found["accumulates floats"] = true
					}
				}
			}
		}
		return true
	})
	effects := make([]string, 0, len(found))
	for e := range found {
		effects = append(effects, e)
	}
	sort.Strings(effects)
	return effects
}
