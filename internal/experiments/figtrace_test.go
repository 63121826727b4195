package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"iobehind/internal/runner"
	"iobehind/internal/trace"
)

func TestFigTraceRoundTrips(t *testing.T) {
	res := runFig[*FigTraceResult](t, runner.Serial(), FigTraceExperiment(Quick))
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Identical {
			t.Errorf("%s: replay not byte-identical", p.Workload)
		}
		if p.Ops == 0 || p.TraceBytes == 0 || p.TraceSHA == "" {
			t.Errorf("%s: empty trace stats: %+v", p.Workload, p)
		}
	}
	out := res.Render()
	for _, want := range []string{"phased", "hacc", "wacomm", "ior", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEmitBuiltinTrace(t *testing.T) {
	raw, err := EmitBuiltinTrace("phased", Quick)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.App != "phased" || parsed.Ops() == 0 {
		t.Errorf("parsed = %v", parsed)
	}
	if _, err := EmitBuiltinTrace("no-such-workload", Quick); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestTraceReplayCacheKey pins the acceptance criterion: the trace
// content-hash participates in the runner cache key, so the same trace
// hits and any byte change misses.
func TestTraceReplayCacheKey(t *testing.T) {
	raw, err := EmitBuiltinTrace("phased", Quick)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := runner.New(runner.Options{Workers: 1, Cache: cache})

	exp, err := TraceReplayExperiment("mytrace", raw, Quick)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunExperiment(context.Background(), r, exp)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Hits != 0 || got.Writes != 1 {
		t.Fatalf("after first run: %+v, want 0 hits 1 write", got)
	}

	// Same bytes, fresh experiment: must be served from the cache.
	exp2, err := TraceReplayExperiment("mytrace", append([]byte(nil), raw...), Quick)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunExperiment(context.Background(), r, exp2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Hits != 1 {
		t.Fatalf("after identical re-run: %+v, want 1 hit", got)
	}
	if first.Render() != second.Render() {
		t.Error("cached replay rendered differently")
	}

	// Change one byte of trace content (a compute gap one nanosecond
	// longer) — the key must miss and the point re-run.
	mutated := bytes.Replace(raw, []byte(`"op":"finalize","rank":0,"t":`), []byte(`"op":"finalize","rank":0,"t":1`), 1)
	if bytes.Equal(mutated, raw) {
		t.Fatal("mutation did not change the trace")
	}
	exp3, err := TraceReplayExperiment("mytrace", mutated, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperiment(context.Background(), r, exp3); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Hits != 1 || got.Writes != 2 {
		t.Fatalf("after mutated re-run: %+v, want 1 hit 2 writes (a miss)", got)
	}
}

func TestTraceReplayExperimentRendersReport(t *testing.T) {
	raw, err := EmitBuiltinTrace("ior", Quick)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := TraceReplayExperiment("ior-x", raw, Quick)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExperiment(context.Background(), runner.Serial(), exp)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"ior-x", "B required", "async ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := TraceReplayExperiment("bad", []byte("not a trace"), Quick); err == nil {
		t.Error("malformed trace accepted")
	}
}
