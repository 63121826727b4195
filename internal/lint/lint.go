// Package lint is iolint's engine: a stdlib-only whole-program static
// analysis that enforces the invariants the simulator's reproducibility
// rests on.
//
// The paper's metrics (B, B_L, T — Eq. 3) are reproducible only because
// every experiment point is a pure function of its configuration. Three
// subsystems silently depend on that purity: the runner's SHA-256 result
// cache (a point's canonical-JSON config *is* its identity), the
// gateway's online-vs-offline sweep equality, and the distributed fabric
// (which ships cached results between machines keyed by that identity).
// iolint encodes the hazards as machine-checked rules over a module-wide
// call graph (see callgraph.go): functions declared in the simulation
// packages are *entry points*, everything they can call — through any
// number of packages, interfaces, or function values — is
// *sim-reachable*, and the taint rules police sim-reachable code
// wherever it is declared:
//
//   - walltime   — no path from an entry point to time.Now/Sleep/Since/
//     After/...; all time must flow from des.Time. Findings carry the
//     full call chain (pfs.recompute → core.stamp → time.Now).
//   - globalrand — no path to global math/rand(/v2) draws, unseeded
//     rand.New, or crypto/rand; randomness must come from an explicitly
//     seeded *rand.Rand threaded through config.
//   - maporder   — no ranging over a map in sim-reachable code where the
//     loop body appends to a slice, schedules events, writes output, or
//     accumulates floats: map order is randomized per run.
//   - goroutine  — no go statements or channel operations in
//     sim-reachable code; the kernel is single-threaded by design and
//     concurrency belongs to the exempt packages.
//   - errdrop    — no discarded error from the fuzz-tested decoders
//     (tmio.DecodeStreamRecord, tmio.DecodeFrame, trace.DecodeRecord,
//     fabric.DecodeMsg) or from Close/Flush on files and buffered writers
//     in the fabric and runner packages, where a swallowed error breaks
//     the resume guarantee.
//   - cachekey   — structs reachable from a runner.Point config must mark
//     func/chan/unexported-interface fields `json:"-"` so json.Marshal
//     based SHA-256 cache keys stay total and stable.
//   - floateq    — ==/!= between floating-point expressions is forbidden
//     in internal/region, internal/metrics, and internal/ftio; interval
//     arithmetic there must use epsilon or ordering comparisons.
//
// The taint rules stop at an explicit exemption boundary — internal/
// runner, internal/gateway, internal/fabric, and cmd/ — the layers that
// run on real machines around the simulation (worker pools, TCP ingest,
// lease deadlines) and can never influence a point's result.
//
// Analyzers inspect non-test files only; tests may freely use wall time
// and ad-hoc randomness. A finding can be suppressed with a comment on
// the offending line, the line directly above it, or the line directly
// above the statement containing it:
//
//	//iolint:ignore <rule> <reason>
//
// The reason is mandatory: a suppression without one does not suppress
// and is itself reported. The whole package uses only go/ast, go/parser,
// go/token, and go/types with the source importer — no x/tools — so the
// module stays dependency-free.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, rendered as "file:line:col: [rule] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Chain, for reachability findings, is the call chain from a
	// simulation entry point to the sink ("pfs.recompute", "core.stamp",
	// "time.Now"). The text rendering folds it into Message; the JSON
	// rendering carries it as a structured field.
	Chain []string
}

// String renders the diagnostic in the canonical file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// jsonDiagnostic fixes the JSON field set; names are part of iolint's
// output contract and pinned by a golden test.
type jsonDiagnostic struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Rule    string   `json:"rule"`
	Message string   `json:"message"`
	Chain   []string `json:"chain,omitempty"`
}

// FormatJSON renders diagnostics as an indented JSON array with stable
// field names, preserving the input (sorted) order. An empty set renders
// as [] rather than null.
func FormatJSON(diags []Diagnostic) ([]byte, error) {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
			Chain:   d.Chain,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// Package is one loaded, typechecked package handed to analyzers.
type Package struct {
	// Path is the package's import path (e.g. "iobehind/internal/des");
	// entry-point and exemption decisions are made on it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Analyzer is one named rule. Run receives the whole program (for the
// call graph) and the single package whose declarations it must report
// on, so RunAll visits each finding exactly once.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, p *Package) []Diagnostic
}

// Analyzers returns every rule in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		walltimeAnalyzer, globalrandAnalyzer, maporderAnalyzer,
		goroutineAnalyzer, errdropAnalyzer, cachekeyAnalyzer, floateqAnalyzer,
	}
}

// simPackages are the packages whose declared functions are the
// reachability entry points: everything that executes inside (or
// enumerates) a virtual-time simulation. Unlike the pre-call-graph
// engine, this list no longer bounds where rules fire — taint follows
// calls into any non-exempt package — it only defines where simulation
// code *starts*.
var simPackages = []string{
	"des", "cluster", "adio", "pfs", "mpi", "mpiio",
	"region", "metrics", "ftio", "workloads", "experiments", "faults",
	"trace",
}

// isSimPackage reports whether path is one of the simulation packages
// (matched as an internal/<name> suffix so the module name is irrelevant).
func isSimPackage(path string) bool {
	for _, name := range simPackages {
		if pathIs(path, "internal/"+name) {
			return true
		}
	}
	return false
}

// pathIs reports whether the import path is rel or a subpackage of it,
// regardless of the module prefix.
func pathIs(path, rel string) bool {
	if path == rel || strings.HasSuffix(path, "/"+rel) {
		return true
	}
	i := strings.Index(path, "/"+rel+"/")
	return i >= 0 || strings.HasPrefix(path, rel+"/")
}

// RunAll builds the whole-program view over pkgs, applies every
// analyzer, drops suppressed findings, reports malformed suppression
// comments, deduplicates, and returns the result sorted by position then
// rule.
func RunAll(pkgs []*Package) []Diagnostic {
	return NewProgram(pkgs).Diagnostics()
}

// Diagnostics applies every analyzer to every package of the program.
func (prog *Program) Diagnostics() []Diagnostic {
	sup := newSuppressions()
	for _, p := range prog.Pkgs {
		sup.registerSpans(p)
	}
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		for _, a := range Analyzers() {
			for _, d := range a.Run(prog, p) {
				if !sup.covers(d) {
					diags = append(diags, d)
				}
			}
		}
		diags = append(diags, sup.malformed(p)...)
	}
	return dedupeSort(diags)
}

func dedupeSort(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	out := diags[:0]
	var prev Diagnostic
	for i, d := range diags {
		if i > 0 && d.Pos.Filename == prev.Pos.Filename && d.Pos.Line == prev.Pos.Line &&
			d.Pos.Column == prev.Pos.Column && d.Rule == prev.Rule {
			continue
		}
		out = append(out, d)
		prev = d
	}
	return out
}
