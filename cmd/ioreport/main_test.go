package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iobehind"
)

// TestReplayRendersSavedReport renders a 4-rank HACC-IO report file with
// -replay: the tables equal the live run's, and the projection covers
// every strategy.
func TestReplayRendersSavedReport(t *testing.T) {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    4,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
	})
	rep, err := sim.Run(iobehind.HaccMain(sim.IO, iobehind.HaccConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var live bytes.Buffer
	if err := rep.File().WriteText(&live); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, live.String()) {
		t.Fatalf("saved report renders differently:\n%s\nlive:\n%s", out, live.String())
	}
	replay := out[len(live.String()):]
	for _, row := range []string{"direct(tol=1.1)", "direct(tol=2)", "up-only(tol=1.1)",
		"adaptive(tol=1.1,tolD=0.5)", "frequent(tol=1.1)"} {
		if !strings.Contains(replay, "\n"+row+" ") {
			t.Fatalf("replay table lacks %s:\n%s", row, replay)
		}
	}
}
