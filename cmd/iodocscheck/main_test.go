package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestExperimentTokens(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("fig01.go", `package experiments
func Fig01Experiment(scale int) int { return 0 }
func helper() {}
`)
	write("figfaults.go", `package experiments
func FigFaultsExperiment(scale int) int { return 0 }

// A seeded variant of the base constructor must not demand its own row.
func FigFaultsExperimentSeeded(scale int, seed int64) int { return 0 }
`)
	// Test files and methods are out of scope.
	write("fig99_test.go", `package experiments
func Fig99Experiment(scale int) int { return 0 }
`)
	write("methods.go", `package experiments
type T struct{}
func (T) FigMethodExperiment() {}
`)

	tokens, err := experimentTokens(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Fig01", "FigFaults"}
	if !reflect.DeepEqual(tokens, want) {
		t.Fatalf("tokens = %v, want %v", tokens, want)
	}
}

func TestMissingEntries(t *testing.T) {
	doc := "| 1 | `experiments.Fig01Experiment` | ... |\n| faults | `experiments.FigFaultsExperiment` | ... |\n"
	if got := missingEntries(doc, []string{"Fig01", "FigFaults"}); len(got) != 0 {
		t.Errorf("documented tokens flagged: %v", got)
	}
	if got := missingEntries(doc, []string{"Fig01", "FigTrace"}); !reflect.DeepEqual(got, []string{"FigTrace"}) {
		t.Errorf("missing = %v, want [FigTrace]", got)
	}
	// Naming only a function without the constructor suffix (a stale
	// mention of a deleted serial entry point) is not an entry.
	stale := "| 1 | `experiments.Fig01` | ... |\n"
	if got := missingEntries(stale, []string{"Fig01"}); !reflect.DeepEqual(got, []string{"Fig01"}) {
		t.Errorf("missing = %v, want [Fig01]", got)
	}
}

// TestRepoIsClean runs the real check over this repository: every
// constructor in internal/experiments must have its EXPERIMENTS.md row.
// Removing a row (the CI failure mode the checker exists for) makes the
// token set non-empty.
func TestRepoIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := experimentTokens(filepath.Join(root, "internal", "experiments"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if missing := missingEntries(string(doc), tokens); len(missing) != 0 {
		t.Errorf("undocumented experiments: %v", missing)
	}
}
