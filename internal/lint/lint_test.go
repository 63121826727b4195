package lint_test

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"iobehind/internal/lint"
)

// TestAnalyzers loads each rule's fixture package under a claimed import
// path and asserts that the diagnostics RunAll produces (after
// suppression filtering) match the fixture's // want comments exactly:
// every want is hit by exactly one diagnostic on its line, and no
// diagnostic lacks a want.
func TestAnalyzers(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	tests := []struct {
		name string
		dir  string // fixture under testdata/src
		path string // claimed import path (decides rule applicability)
		// explicit, when non-nil, replaces // want matching with exact
		// "line [rule]" expectations (used where a trailing want comment
		// would change the fixture's meaning).
		explicit []string
		// ignoreWants loads a fixture while asserting zero diagnostics —
		// the same code under a path where no rule applies.
		ignoreWants bool
	}{
		{name: "walltime", dir: "walltime", path: "iobehind/internal/des"},
		{name: "walltime-outside-sim", dir: "walltime", path: "iobehind/internal/gateway", ignoreWants: true},
		// The fabric legitimately reads the wall clock (lease deadlines,
		// reconnect backoff, worker liveness — properties of real machines,
		// never of a simulated point), so it is deliberately outside the
		// walltime rule's scope.
		{name: "walltime-fabric-excluded", dir: "walltime", path: "iobehind/internal/fabric", ignoreWants: true},
		{name: "globalrand", dir: "globalrand", path: "iobehind/internal/pfs"},
		{name: "globalrand-outside-sim", dir: "globalrand", path: "iobehind/internal/tmio", ignoreWants: true},
		{name: "maporder", dir: "maporder", path: "iobehind/internal/cluster"},
		{name: "maporder-exempt", dir: "maporder", path: "iobehind/internal/runner", ignoreWants: true},
		{name: "goroutine", dir: "goroutine", path: "iobehind/internal/des"},
		{name: "goroutine-exempt", dir: "goroutine", path: "iobehind/internal/fabric", ignoreWants: true},
		// The incremental sweep's chunked-structure shape: map-ordered
		// refolds and goroutine-based compaction are exactly the bugs
		// that would break the online/offline bit-exactness contract, so
		// both taint rules must cover internal/region's new code.
		{name: "incsweep-region", dir: "incsweep", path: "iobehind/internal/region"},
		{name: "incsweep-exempt", dir: "incsweep", path: "iobehind/internal/runner", ignoreWants: true},
		{name: "errdrop", dir: "errdrop", path: "iobehind/internal/fabric"},
		{name: "errdrop-outside", dir: "errdrop", path: "iobehind/internal/gateway", ignoreWants: true},
		{name: "errdropframe", dir: "errdropframe", path: "iobehind/internal/tmio"},
		{name: "errdropframe-outside", dir: "errdropframe", path: "iobehind/internal/gateway", ignoreWants: true},
		{name: "suppress-edge-cases", dir: "suppress", path: "iobehind/internal/metrics"},
		{name: "cachekey", dir: "cachekey", path: "iobehind/internal/lintfixture"},
		{name: "floateq", dir: "floateq", path: "iobehind/internal/region"},
		{name: "floateq-outside", dir: "floateq", path: "iobehind/internal/pfs", ignoreWants: true},
		{name: "ignore-malformed", dir: "ignorebad", path: "iobehind/internal/lintfixture",
			explicit: []string{"7 [ignore]", "10 [ignore]"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tt.dir)
			p, err := lint.Check(fset, imp, dir, tt.path)
			if err != nil {
				t.Fatalf("load fixture %s: %v", dir, err)
			}
			diags := lint.RunAll([]*lint.Package{p})
			switch {
			case tt.ignoreWants:
				for _, d := range diags {
					t.Errorf("unexpected diagnostic outside rule scope: %s", d)
				}
			case tt.explicit != nil:
				var got []string
				for _, d := range diags {
					got = append(got, fmt.Sprintf("%d [%s]", d.Pos.Line, d.Rule))
				}
				if strings.Join(got, "; ") != strings.Join(tt.explicit, "; ") {
					t.Errorf("diagnostics = %v, want %v", got, tt.explicit)
				}
			default:
				matchWants(t, p, diags)
			}
		})
	}
}

var wantRE = regexp.MustCompile(`// want (".*")`)
var wantArgRE = regexp.MustCompile(`"([^"]*)"`)

// matchWants compares diagnostics against the fixture's // want comments.
func matchWants(t *testing.T, p *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	type want struct {
		substr string
		used   bool
	}
	wants := make(map[int][]*want) // line -> expectations
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					wants[line] = append(wants[line], &want{substr: arg[1]})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if !w.used && strings.Contains(d.String(), w.substr) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("line %d: missing diagnostic containing %q", line, w.substr)
			}
		}
	}
}

// TestDiagnosticString pins the file:line:col: [rule] message format the
// Makefile's lint target (and editors) rely on.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Rule:    "walltime",
		Message: "msg",
	}
	if got, want := d.String(), "a/b.go:3:7: [walltime] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzerRegistry pins the shipped rule set: the seven invariants
// the sweep cache and online/offline equality depend on.
func TestAnalyzerRegistry(t *testing.T) {
	var names []string
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s: missing doc or run", a.Name)
		}
	}
	want := []string{"walltime", "globalrand", "maporder", "goroutine", "errdrop", "cachekey", "floateq"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("analyzers = %v, want %v", names, want)
	}
}

// TestReachabilityAcrossPackages is the seeded regression for the
// whole-program engine: a wall-clock read and a PR-5-shaped map-order
// bug hidden in a helper package OUTSIDE the simulation list, reached
// only through calls from a simulation package. The package-scoped
// rules this engine replaced provably missed both (the helper alone is
// clean); the call graph reports them with full chains.
func TestReachabilityAcrossPackages(t *testing.T) {
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)

	helper, err := lint.Check(fset, src, filepath.Join("testdata", "src", "reachcore"), "iobehind/internal/core")
	if err != nil {
		t.Fatalf("load helper: %v", err)
	}
	// Alone, the helper produces nothing: it is not a simulation package,
	// so nothing in it is sim-reachable. This is exactly the blind spot of
	// a package-list rule.
	if diags := lint.RunAll([]*lint.Package{helper}); len(diags) != 0 {
		t.Fatalf("helper alone should be clean, got %v", diags)
	}

	chain := &lint.ChainImporter{
		Pkgs:     map[string]*types.Package{"iobehind/internal/core": helper.Pkg},
		Fallback: src,
	}
	sim, err := lint.Check(fset, chain, filepath.Join("testdata", "src", "reach"), "iobehind/internal/pfs")
	if err != nil {
		t.Fatalf("load sim fixture: %v", err)
	}
	diags := lint.RunAll([]*lint.Package{helper, sim})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%v", len(diags), diags)
	}
	byRule := make(map[string]lint.Diagnostic)
	for _, d := range diags {
		byRule[d.Rule] = d
		if base := filepath.Base(d.Pos.Filename); base != "core.go" {
			t.Errorf("[%s] reported in %s, want the helper file core.go", d.Rule, base)
		}
	}
	wt, ok := byRule["walltime"]
	if !ok {
		t.Fatalf("no walltime diagnostic in %v", diags)
	}
	if got, want := strings.Join(wt.Chain, " → "), "pfs.Recompute → core.Stamp → core.now → time.Now"; got != want {
		t.Errorf("walltime chain = %q, want %q", got, want)
	}
	if !strings.Contains(wt.Message, "pfs.Recompute → core.Stamp → core.now → time.Now") {
		t.Errorf("walltime message lacks the rendered chain: %s", wt.Message)
	}
	mo, ok := byRule["maporder"]
	if !ok {
		t.Fatalf("no maporder diagnostic in %v", diags)
	}
	if got, want := strings.Join(mo.Chain, " → "), "pfs.Layout → core.Requests"; got != want {
		t.Errorf("maporder chain = %q, want %q", got, want)
	}
}

// TestLoadRepo smoke-loads two real packages through the pattern loader
// (which expands to their module-internal import closure so type
// identity stays unified) and asserts the loaded tree is currently
// clean — the invariant make ci enforces.
func TestLoadRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecking the repo is slow; skipped with -short")
	}
	pkgs, err := lint.Load(filepath.Join("..", ".."), []string{"./internal/des", "./internal/region"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	found := make(map[string]bool)
	for _, p := range pkgs {
		found[p.Path] = true
	}
	for _, want := range []string{"iobehind/internal/des", "iobehind/internal/region"} {
		if !found[want] {
			t.Errorf("Load did not return %s (got %d packages)", want, len(pkgs))
		}
	}
	for _, d := range lint.RunAll(pkgs) {
		t.Errorf("unexpected diagnostic in clean tree: %s", d)
	}
}

// TestGoldenOutput pins both renderings of iolint's findings — the
// file:line:col text form and the -json form with its stable field
// names — over a fixture that trips three different rules.
func TestGoldenOutput(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	p, err := lint.Check(fset, imp, filepath.Join("testdata", "src", "multirule"), "iobehind/internal/metrics")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := lint.RunAll([]*lint.Package{p})
	for i := range diags {
		diags[i].Pos.Filename = filepath.Base(diags[i].Pos.Filename)
	}

	var text strings.Builder
	for _, d := range diags {
		text.WriteString(d.String())
		text.WriteString("\n")
	}
	if got := text.String(); got != goldenText {
		t.Errorf("text rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenText)
	}

	out, err := lint.FormatJSON(diags)
	if err != nil {
		t.Fatalf("FormatJSON: %v", err)
	}
	if got := string(out) + "\n"; got != goldenJSON {
		t.Errorf("JSON rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenJSON)
	}

	// The empty set renders as [], not null — scripts consuming -json
	// depend on always getting an array.
	empty, err := lint.FormatJSON(nil)
	if err != nil {
		t.Fatalf("FormatJSON(nil): %v", err)
	}
	if string(empty) != "[]" {
		t.Errorf("FormatJSON(nil) = %q, want []", empty)
	}
}

// goldenText and goldenJSON pin iolint's two output renderings over the
// multirule fixture (filenames reduced to their base name).
const goldenText = `multirule.go:10:17: [walltime] wall-clock call time.Now is sim-reachable (metrics.epoch → time.Now); derive time from des.Time so results stay a pure function of config
multirule.go:14:11: [floateq] floating-point == comparison; use an epsilon or ordering comparison so interval arithmetic stays stable
multirule.go:19:2: [maporder] range over map[string]int appends to a slice; map iteration order is randomized per run — iterate a sorted or first-appearance order instead (metrics.Keys)
`

const goldenJSON = `[
  {
    "file": "multirule.go",
    "line": 10,
    "col": 17,
    "rule": "walltime",
    "message": "wall-clock call time.Now is sim-reachable (metrics.epoch → time.Now); derive time from des.Time so results stay a pure function of config",
    "chain": [
      "metrics.epoch",
      "time.Now"
    ]
  },
  {
    "file": "multirule.go",
    "line": 14,
    "col": 11,
    "rule": "floateq",
    "message": "floating-point == comparison; use an epsilon or ordering comparison so interval arithmetic stays stable"
  },
  {
    "file": "multirule.go",
    "line": 19,
    "col": 2,
    "rule": "maporder",
    "message": "range over map[string]int appends to a slice; map iteration order is randomized per run — iterate a sorted or first-appearance order instead (metrics.Keys)",
    "chain": [
      "metrics.Keys"
    ]
  }
]
`
