package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// cachekeyAnalyzer enforces the runner cache's key contract. A
// runner.Point's Config is canonically JSON-encoded and SHA-256-hashed
// into the disk-cache key, so every struct reachable from a Config value
// must marshal totally and stably:
//
//   - func- and chan-typed content in an exported field makes
//     json.Marshal fail outright (the cache key ceases to exist);
//   - the same content in an unexported field is silently skipped, so a
//     piece of behaviour-changing wiring stops participating in the
//     point's identity and stale cache entries get served;
//   - unexported-interface fields marshal by dynamic value, so the key
//     depends on runtime wiring rather than configuration.
//
// All three must be excluded explicitly with a `json:"-"` tag (stating
// "this is runtime wiring, not identity"), as tmio.Config.FaultOracle
// does. Fields already tagged `json:"-"` are not descended into.
//
// The same JSON is what a fabric manifest carries to a remote worker
// (as bytes, so the manifest holds no typed config to walk): a config
// that cannot marshal totally would change identity between the
// submitter and the worker. A Point literal or a Config assignment roots
// the walk.
var cachekeyAnalyzer = &Analyzer{
	Name: "cachekey",
	Doc: "structs reachable from a runner.Point config must mark " +
		"func/chan/unexported-interface fields json:\"-\" " +
		"so JSON-based SHA-256 cache keys stay total and stable",
	Run: func(prog *Program, p *Package) []Diagnostic {
		w := &cachekeyWalker{p: p, visited: make(map[types.Type]bool), reported: make(map[*types.Var]bool)}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if !isConfigCarrier(p.Info.Types[n].Type) {
						return true
					}
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Config" {
							w.root(kv.Value)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Config" || i >= len(n.Rhs) {
							continue
						}
						if seln := p.Info.Selections[sel]; seln != nil && isConfigCarrier(seln.Recv()) {
							w.root(n.Rhs[i])
						}
					}
				}
				return true
			})
		}
		return w.diags
	},
}

// isConfigCarrier reports whether t is (a pointer to) a struct whose
// Config field is a cache-key root: the runner package's Point.
func isConfigCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Name() == "Point" && pathIs(obj.Pkg().Path(), "internal/runner")
}

type cachekeyWalker struct {
	p        *Package
	visited  map[types.Type]bool
	reported map[*types.Var]bool
	diags    []Diagnostic
}

// root starts a walk at the static type of a Config expression. An
// expression that is already statically interface-typed (e.g. forwarding
// an `any`) carries no type information to check.
func (w *cachekeyWalker) root(expr ast.Expr) {
	if tv, ok := w.p.Info.Types[expr]; ok && tv.Type != nil {
		w.walk(tv.Type)
	}
}

// walk descends the type graph rooted at t, checking every struct field
// it can reach through pointers, slices, arrays, maps, and named types.
func (w *cachekeyWalker) walk(t types.Type) {
	if t == nil || w.visited[t] {
		return
	}
	w.visited[t] = true
	switch t := t.(type) {
	case *types.Pointer:
		w.walk(t.Elem())
	case *types.Slice:
		w.walk(t.Elem())
	case *types.Array:
		w.walk(t.Elem())
	case *types.Map:
		w.walk(t.Key())
		w.walk(t.Elem())
	case *types.Named:
		w.walk(t.Underlying())
	case *types.Struct:
		w.checkStruct(t)
	}
}

func (w *cachekeyWalker) checkStruct(st *types.Struct) {
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if jsonExcluded(st.Tag(i)) {
			continue // explicitly not part of the key; don't descend
		}
		if w.reported[field] {
			continue
		}
		ft := field.Type()
		if kind := unmarshalableKind(ft, nil); kind != "" {
			w.reported[field] = true
			w.report(field, kind, st)
			continue
		}
		w.walk(ft)
	}
}

func (w *cachekeyWalker) report(field *types.Var, kind string, st *types.Struct) {
	var msg string
	if field.Exported() {
		msg = "cache-keyed field " + field.Name() + " contains " + kind +
			" content, which json.Marshal rejects; mark it json:\"-\" (runtime wiring, not point identity)"
	} else {
		msg = "unexported cache-keyed field " + field.Name() + " contains " + kind +
			" content and is silently excluded from the cache key; hoist the wiring out of the config"
	}
	w.diags = append(w.diags, Diagnostic{Pos: w.p.Fset.Position(field.Pos()), Rule: "cachekey", Message: msg})
}

// jsonExcluded reports whether a struct tag is exactly `json:"-"` — the
// marker that a field is runtime wiring excluded from marshaling.
// (`json:"-,"` names the field "-" and still marshals.)
func jsonExcluded(tag string) bool {
	val, ok := reflect.StructTag(tag).Lookup("json")
	return ok && strings.Split(val, ",")[0] == "-" && !strings.Contains(val, ",")
}

// unmarshalableKind reports the reason t cannot participate in a JSON
// cache key: "func"-typed or "chan"-typed content reached through
// non-struct containers, or an unexported/anonymous interface. Struct
// fields are not descended here — the struct walk checks them against
// their own tags.
func unmarshalableKind(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Signature:
		return "func"
	case *types.Chan:
		return "chan"
	case *types.Pointer:
		return unmarshalableKind(t.Elem(), seen)
	case *types.Slice:
		return unmarshalableKind(t.Elem(), seen)
	case *types.Array:
		return unmarshalableKind(t.Elem(), seen)
	case *types.Map:
		if kind := unmarshalableKind(t.Key(), seen); kind != "" {
			return kind
		}
		return unmarshalableKind(t.Elem(), seen)
	case *types.Interface:
		if !t.Empty() {
			return "anonymous-interface"
		}
		return ""
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok {
			obj := t.Obj()
			if obj.Pkg() != nil && !obj.Exported() && !iface.Empty() {
				return "unexported-interface"
			}
			return ""
		}
		return unmarshalableKind(t.Underlying(), seen)
	}
	return ""
}
