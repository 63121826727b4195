// Command iodocscheck keeps EXPERIMENTS.md honest: every figure
// experiment in internal/experiments must have a row in the figure↔code
// table. It scans the package for exported constructors named
// Fig<Token>Experiment (the registry entries behind `iosweep -figs`) and
// fails when EXPERIMENTS.md never names the constructor itself,
// `experiments.Fig<Token>Experiment` — the form the table's code column
// uses. A bare `experiments.Fig<Token>` does not count, so a stale
// mention of a deleted function cannot pass for a row.
//
//	go run ./cmd/iodocscheck          # from anywhere inside the module
//	make docs-check
//
// Findings print to stdout, one per line, and the exit status is non-zero
// when any constructor is undocumented. The checker is stdlib-only and
// purely syntactic — it parses declarations, not doc prose — so it cannot
// tell whether the documentation is *good*, only that it exists.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	tokens, err := experimentTokens(filepath.Join(root, "internal", "experiments"))
	if err != nil {
		fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		fatal(err)
	}
	missing := missingEntries(string(doc), tokens)
	for _, tok := range missing {
		fmt.Printf("EXPERIMENTS.md: no entry for experiments.%sExperiment\n", tok)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "iodocscheck: %d undocumented experiment(s)\n", len(missing))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "iodocscheck: %d experiments, all documented\n", len(tokens))
}

// experimentTokens parses every non-test Go file in dir and returns the
// Fig tokens of exported experiment constructors: a declaration
// `func FigXxxExperiment(...)` yields "FigXxx". Names merely *containing*
// Experiment (FigFaultsExperimentSeeded) are variants of a base
// constructor, not registry entries, and are skipped.
func experimentTokens(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			tok, ok := strings.CutSuffix(fd.Name.Name, "Experiment")
			if !ok || !strings.HasPrefix(tok, "Fig") {
				continue
			}
			seen[tok] = true
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("no Fig*Experiment constructors found in %s", dir)
	}
	tokens := make([]string, 0, len(seen))
	for tok := range seen {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	return tokens, nil
}

// missingEntries returns the tokens with no `experiments.<token>Experiment`
// mention in doc, preserving input order.
func missingEntries(doc string, tokens []string) []string {
	var missing []string
	for _, tok := range tokens {
		if !strings.Contains(doc, "experiments."+tok+"Experiment") {
			missing = append(missing, tok)
		}
	}
	return missing
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iodocscheck:", err)
	os.Exit(1)
}
