package experiments

import (
	"context"
	"crypto/sha256"
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
// fails here instead of in a hand diff against an older build. It also
// pins each point's full result, as the SHA-256 of its cache-entry bytes,
// in testdata/golden/points.txt: a change in event order or in a digit
// no render prints moves a result without moving a render. A
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
	var points strings.Builder
	for _, r := range results {
		data, err := runner.EncodeEntry(r.Value)
		if err != nil {
			t.Fatalf("point %s: %v", r.Key, err)
		}
		fmt.Fprintf(&points, "%s %x\n", r.Key, sha256.Sum256(data))
	}
	checkGolden(t, "points", filepath.Join("testdata", "golden", "points.txt"), points.String())
	for _, e := range plan.Entries {
		res, err := e.Exp.Assemble(results[e.Offset : e.Offset+len(e.Exp.Points)])
		if err != nil {
			t.Errorf("figure %s: %v", e.ID, err)
			continue
		}
		checkGolden(t, "figure "+e.ID, filepath.Join("testdata", "golden", "fig"+e.ID+".txt"), res.Render())
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, what, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%s: %v (record it with -update)", what, err)
		return
	}
	if got != string(want) {
		t.Errorf("%s: differs from %s: %s", what, path, firstDiff(string(want), got))
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
