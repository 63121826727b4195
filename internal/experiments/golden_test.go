package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iobehind/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current renders")

// TestGoldenRenders pins every figure of the quick-scale plan that
// `iosweep -figs all` runs (fault seed 1) to its committed render in
// testdata/golden/fig<ID>.txt, so a change that moves any printed digit
// fails here instead of in a hand diff against an older build. A
// deliberate model change re-records the files with
//
//	go test ./internal/experiments -run TestGoldenRenders -update
//
// and the rewritten files show up in review as the diff of the change.
func TestGoldenRenders(t *testing.T) {
	plan, err := BuildPlan(nil, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runner.Serial().Run(context.Background(), plan.Points)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Entries {
		res, err := e.Exp.Assemble(results[e.Offset : e.Offset+len(e.Exp.Points)])
		if err != nil {
			t.Errorf("figure %s: %v", e.ID, err)
			continue
		}
		got := res.Render()
		path := filepath.Join("testdata", "golden", "fig"+e.ID+".txt")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("figure %s: %v (record it with -update)", e.ID, err)
			continue
		}
		if got != string(want) {
			t.Errorf("figure %s: render differs from %s: %s", e.ID, path, firstDiff(string(want), got))
		}
	}
}

// firstDiff names the first line where two renders part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
