package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
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

// TestCacheKeyIsComplete requires each quick-plan point's config, the
// value its cache key hashes, to be the whole of its input: it encodes
// the config to JSON, builds a fresh point from those bytes alone with
// PointFromJSON, as a fabric worker does, runs it, and requires the
// result digest that testdata/golden/points.txt pins. A field that
// changes a result but never reaches the key (tagged json:"-",
// unexported, or read from outside the config) fails here;
// TestGoldenRenders runs the enumerated points themselves and cannot
// see one.
func TestCacheKeyIsComplete(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "points.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key, digest, _ := strings.Cut(line, " ")
		pinned[key] = digest
	}
	plan, err := BuildPlan(nil, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != len(pinned) {
		t.Fatalf("plan has %d points, points.txt pins %d", len(plan.Points), len(pinned))
	}
	for _, p := range plan.Points {
		data, err := json.Marshal(p.Config)
		if err != nil {
			t.Fatalf("point %s: %v", p.Key, err)
		}
		rebuilt, err := PointFromJSON(p.Key, data)
		if err != nil {
			t.Fatalf("point %s: %v", p.Key, err)
		}
		want, err := runner.CacheKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := runner.CacheKey(rebuilt); err != nil || got != want {
			t.Errorf("point %s: rebuilt cache key %s (%v), enumerated %s", p.Key, got, err, want)
		}
		v, err := rebuilt.Run(context.Background())
		if err != nil {
			t.Errorf("point %s: %v", p.Key, err)
			continue
		}
		entry, err := runner.EncodeEntry(v)
		if err != nil {
			t.Fatalf("point %s: %v", p.Key, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(entry)); got != pinned[p.Key] {
			t.Errorf("point %s: rebuilt from its config it digests to %s, points.txt pins %s", p.Key, got, pinned[p.Key])
		}
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
