package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
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

// TestResolveEveryBuiltinPoint walks every built-in experiment at quick
// scale and asserts each enumerated ref resolves — on what a remote
// worker would be: a fresh enumeration — to a point with the same key
// and, critically, the same SHA-256 cache key. Key equality is what
// makes remote execution sound: the worker computes exactly the point
// the submitter hashed.
func TestResolveEveryBuiltinPoint(t *testing.T) {
	for _, fig := range FigOrder {
		exp, ok := ByFig(fig, Quick)
		if !ok {
			t.Fatalf("figure %s missing", fig)
		}
		refs := ExperimentRefs(exp, Quick)
		if len(refs) != len(exp.Points) {
			t.Fatalf("figure %s: %d refs for %d points", fig, len(refs), len(exp.Points))
		}
		for i, ref := range refs {
			p, err := ResolvePoint(ref)
			if err != nil {
				t.Fatalf("resolve %s: %v", ref, err)
			}
			if p.Key != exp.Points[i].Key {
				t.Fatalf("ref %s resolved to key %q", ref, p.Key)
			}
			want, err := runner.CacheKey(exp.Points[i])
			if err != nil {
				t.Fatalf("cache key of %s: %v", exp.Points[i].Key, err)
			}
			got, err := runner.CacheKey(p)
			if err != nil {
				t.Fatalf("cache key of resolved %s: %v", ref, err)
			}
			if got != want {
				t.Fatalf("ref %s: resolved cache key %s != enumerated %s", ref, got, want)
			}
		}
	}
}

// TestResolveSeededFaults asserts the fault seed travels through the ref
// and reproduces the seeded enumeration, not the default one.
func TestResolveSeededFaults(t *testing.T) {
	exp := FigFaultsExperimentSeeded(Quick, 42)
	refs := ExperimentRefs(exp, Quick)
	for i, ref := range refs {
		if ref.FaultSeed != 42 {
			t.Fatalf("ref %d carries seed %d, want 42", i, ref.FaultSeed)
		}
		p, err := ResolvePoint(ref)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := runner.CacheKey(exp.Points[i])
		got, _ := runner.CacheKey(p)
		if got != want {
			t.Fatalf("seeded ref %s: cache key mismatch", ref)
		}
	}
}

// TestResolveRejectsSkew pins the integrity checks: unknown figures, bad
// scales, out-of-range indices, and key mismatches (the signature of a
// submitter/worker version skew) all refuse to resolve.
func TestResolveRejectsSkew(t *testing.T) {
	good := ExperimentRefs(Fig05Experiment(Quick), Quick)[0]
	bad := []PointRef{
		{Fig: "nope", Scale: "quick"},
		{Fig: "5", Scale: "medium"},
		{Fig: "5", Scale: "quick", Index: 10_000},
		{Fig: "5", Scale: "quick", Index: -1},
		func() PointRef { r := good; r.Key = "fig05/quick/ranks=999/run=0"; return r }(),
	}
	for _, ref := range bad {
		if _, err := ResolvePoint(ref); err == nil {
			t.Errorf("ResolvePoint(%+v) succeeded, want error", ref)
		}
	}
	if _, err := ResolvePoint(good); err != nil {
		t.Errorf("good ref failed: %v", err)
	}
}

// TestManifestConfigGobRoundTrip sends a point config through gob as an
// interface value — exactly what fabric lease messages do — and asserts
// the canonical JSON (hence the cache key) survives. Without the
// gob.Register in registry.go the encode fails outright.
func TestManifestConfigGobRoundTrip(t *testing.T) {
	exp := Fig05Experiment(Quick)
	type envelope struct{ Config any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{Config: exp.Points[0].Config}); err != nil {
		t.Fatalf("gob encode of manifest config: %v", err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode of manifest config: %v", err)
	}
	want, err := json.Marshal(exp.Points[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(out.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("config JSON changed across gob transport:\n got %s\nwant %s", got, want)
	}
}

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
// figures and its flat refs line up index-for-index with its points.
func TestBuildPlanMatchesSweepEnumeration(t *testing.T) {
	plan, err := BuildPlan([]string{"1", "2", "5", "6"}, Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 2 {
		t.Fatalf("plan has %d entries, want 2 (1+2 and 5+6 dedupe)", len(plan.Entries))
	}
	if len(plan.Points) != len(plan.Refs) {
		t.Fatalf("%d points vs %d refs", len(plan.Points), len(plan.Refs))
	}
	for i, ref := range plan.Refs {
		if ref.Key != plan.Points[i].Key {
			t.Fatalf("ref %d key %q != point key %q", i, ref.Key, plan.Points[i].Key)
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
