package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"iobehind/internal/cluster"
	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/region"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
)

// entryChildEnv marks the child process of
// TestEntryBytesIndependentOfEncodeHistory.
const entryChildEnv = "IOBEHIND_ENTRY_BYTES_CHILD"

// entryDigests returns the SHA-256 of the cache-entry bytes of one fixed
// value of each point result type, taken in an order unlike the one the
// package init encodes them in.
func entryDigests(t *testing.T) []string {
	t.Helper()
	values := []any{
		&TracePointResult{Workload: "ior", Ranks: 4, Ops: 8, TraceSHA: "ab", Identical: true, Runtime: des.Second, RequiredBW: 1e9},
		&fig04Payload{Phases: []region.Phase{{Rank: 1, Start: 1, End: 6, Value: 30e6}}},
		&cluster.Result{
			Policy:      cluster.LimitDuringContention,
			Jobs:        []cluster.JobResult{{Job: 1, Nodes: 2, Async: true, Ended: des.Time(des.Second)}},
			RunningJobs: &metrics.Series{Name: "running", Points: []metrics.Point{{T: 0, V: 1}}},
		},
		&tmio.Report{Ranks: 2, RequiredBandwidth: 5e8, BPhases: []region.Phase{{End: 3, Value: 1e8}}},
	}
	var out []string
	for _, v := range values {
		data, err := runner.EncodeEntry(v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		out = append(out, fmt.Sprintf("%T %x", v, sha256.Sum256(data)))
	}
	return out
}

// TestEntryBytesIndependentOfEncodeHistory runs itself again in a fresh
// process that encodes a tmio.Report before anything else, and requires
// the same cache-entry bytes there as here for every result type. gob
// numbers a type when the process first encodes it, so unless the
// numbering is fixed at init the child's bytes follow its own history —
// and two fabric workers that ran different figures first would report
// the same point with different bytes.
func TestEntryBytesIndependentOfEncodeHistory(t *testing.T) {
	if os.Getenv(entryChildEnv) != "" {
		if _, err := runner.EncodeEntry(&tmio.Report{Ranks: 1}); err != nil {
			t.Fatal(err)
		}
		for _, d := range entryDigests(t) {
			fmt.Println("digest", d)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestEntryBytesIndependentOfEncodeHistory$")
	cmd.Env = append(os.Environ(), entryChildEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			got = append(got, d)
		}
	}
	if want := entryDigests(t); !slices.Equal(got, want) {
		t.Fatalf("entry bytes depend on what the process encoded first:\nchild  %q\nparent %q", got, want)
	}
}

// TestBuildPlanMatchesSweepEnumeration asserts the plan dedupes aliased
// figures, that each entry's points sit at its offset in the flat point
// slice, and that the fault seed reaches the faults figure's points.
func TestBuildPlanMatchesSweepEnumeration(t *testing.T) {
	plan, err := BuildPlan([]string{"1", "2", "5", "6", "faults"}, Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 3 {
		t.Fatalf("plan has %d entries, want 3 (1+2 and 5+6 dedupe)", len(plan.Entries))
	}
	n := 0
	for _, e := range plan.Entries {
		if e.Offset != n {
			t.Fatalf("entry %s at offset %d, want %d", e.ID, e.Offset, n)
		}
		for i, p := range e.Exp.Points {
			if got := plan.Points[e.Offset+i].Key; got != p.Key {
				t.Fatalf("entry %s point %d: plan holds %q, experiment %q", e.ID, i, got, p.Key)
			}
		}
		n += len(e.Exp.Points)
	}
	if n != len(plan.Points) {
		t.Fatalf("entries cover %d of %d points", n, len(plan.Points))
	}
	seeded := FigFaultsExperimentSeeded(Quick, 42)
	for i, p := range plan.Entries[2].Exp.Points {
		want, _ := runner.CacheKey(seeded.Points[i])
		if got, _ := runner.CacheKey(p); got != want {
			t.Fatalf("faults point %s: cache key %s, seed 42 enumerates %s", p.Key, got, want)
		}
	}
	all, err := BuildPlan(nil, Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Entries) != len(FigOrder) {
		t.Fatalf("nil ids → %d entries, want every experiment (%d)", len(all.Entries), len(FigOrder))
	}
	if _, err := BuildPlan([]string{"17"}, Quick, 0); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestPointFromJSONRefuses pins the configs a fabric worker must not
// build: bytes that are not a point config, and a trace replay, whose
// input is file content the config only hashes.
func TestPointFromJSONRefuses(t *testing.T) {
	for name, config := range map[string]string{
		"empty":      "",
		"truncated":  `{"Fig":"5","Ranks":`,
		"not JSON":   "fig05/quick",
		"wrong type": `{"Ranks":"sixteen"}`,
	} {
		if _, err := PointFromJSON("p", []byte(config)); err == nil {
			t.Errorf("%s: built a point from %q", name, config)
		}
	}
	raw, err := EmitBuiltinTrace("phased", Quick)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := TraceReplayExperiment("t", raw, Quick)
	if err != nil {
		t.Fatal(err)
	}
	p := exp.Points[0]
	config, err := json.Marshal(p.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PointFromJSON(p.Key, config); err == nil || !strings.Contains(err.Error(), "trace file") {
		t.Fatalf("trace-replay config: err %v, want a refusal", err)
	}
}
