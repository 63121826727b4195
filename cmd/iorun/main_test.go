package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iobehind/internal/tmio"
)

// TestRunWritesReportFile runs both workloads at 4 ranks with -json: each
// exits 0, keeps its status line off stdout, and prints exactly what the
// report file it wrote renders to.
func TestRunWritesReportFile(t *testing.T) {
	for _, tc := range []struct{ workload, strategy string }{
		{"hacc", "direct(tol=1.1)"},
		{"wacomm", "up-only(tol=1.1)"},
	} {
		path := filepath.Join(t.TempDir(), tc.workload+".json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload", tc.workload, "-ranks", "4", "-json", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.workload, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "traced run: 4 ranks, strategy "+tc.strategy) {
			t.Fatalf("%s: stdout lacks the summary title:\n%s", tc.workload, stdout.String())
		}
		if !strings.Contains(stderr.String(), "report written to") {
			t.Fatalf("%s: no status line on stderr: %q", tc.workload, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saved, err := tmio.ReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := saved.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if text.String() != stdout.String() {
			t.Fatalf("%s: the saved file renders differently:\n%s\nstdout:\n%s", tc.workload, text.String(), stdout.String())
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "ior"},
		{"-strategy", "fastest"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: printed %q", args, stdout.String())
		}
	}
}
