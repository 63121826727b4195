package experiments

import (
	"strings"
	"testing"

	"iobehind"
	"iobehind/internal/des"
	"iobehind/internal/faults"
	"iobehind/internal/region"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
)

// TestFigFaultsQuick assembles the fault scenario at quick scale for
// fault seeds 1–20. Assemble enforces the built-in invariants —
// transient errors were retried, fault windows tainted phases, and the
// limiter recovered once they closed — so each seed's sweep must
// assemble.
func TestFigFaultsQuick(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		res := runFig[*FigFaultsResult](t, runner.Serial(), FigFaultsExperimentSeeded(Quick, seed))
		if out := res.Render(); !strings.Contains(out, "faulted") {
			t.Fatalf("seed %d: render missing the faulted column:\n%s", seed, out)
		}
	}
}

// TestFigFaultsAssembleEnforcesInvariants hands the fault figure's
// Assemble results that break each invariant in turn and requires an
// error naming the broken one.
func TestFigFaultsAssembleEnforcesInvariants(t *testing.T) {
	exp := FigFaultsExperimentSeeded(Quick, 1)
	var lastEnd des.Time
	for _, w := range figFaultsScenario(1).Resolve() {
		if w.End() > lastEnd {
			lastEnd = w.End()
		}
	}
	recovered := lastEnd.Add(des.Second)
	assemble := func(breakIt func(clean, faulted *tmio.Report)) error {
		clean := &tmio.Report{BLPhases: []region.Phase{{Start: recovered, Value: 100e6}}}
		faulted := &tmio.Report{Retries: 3, FaultPhases: 2,
			BLPhases: []region.Phase{{Start: recovered, Value: 120e6}}}
		breakIt(clean, faulted)
		_, err := exp.Assemble([]runner.Result{{Key: "clean", Value: clean}, {Key: "faulted", Value: faulted}})
		return err
	}
	if err := assemble(func(_, _ *tmio.Report) {}); err != nil {
		t.Fatalf("results that hold every invariant: %v", err)
	}
	cases := []struct {
		name, want string
		breakIt    func(clean, faulted *tmio.Report)
	}{
		{"no retries", "no transient-error retries",
			func(_, f *tmio.Report) { f.Retries = 0 }},
		{"no faulty phase", "no phase was marked faulty",
			func(_, f *tmio.Report) { f.FaultPhases = 0 }},
		{"no limit at all", "missing applied limits",
			func(_, f *tmio.Report) { f.BLPhases = nil }},
		{"no limit after the last window", "no limit derived after the last fault window",
			func(_, f *tmio.Report) { f.BLPhases[0].Start = lastEnd.Add(-des.Millisecond) }},
		{"recovered limit over 3x", "diverged from clean limit",
			func(_, f *tmio.Report) { f.BLPhases[0].Value = 301e6 }},
		{"recovered limit under 1/3", "diverged from clean limit",
			func(_, f *tmio.Report) { f.BLPhases[0].Value = 33e6 }},
	}
	for _, c := range cases {
		err := assemble(c.breakIt)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Assemble error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestFigFaultsParallelMatchesSerial(t *testing.T) {
	serial := runFig[*FigFaultsResult](t, runner.Serial(), FigFaultsExperiment(Quick))
	parallel := runFig[*FigFaultsResult](t, runner.New(runner.Options{Workers: 4}), FigFaultsExperiment(Quick))
	if serial.Render() != parallel.Render() {
		t.Fatal("faults parallel render differs from serial")
	}
}

// TestFaultConfigChangesCacheKey pins the acceptance requirement that the
// fault configuration participates in the sweep cache key: editing one
// window, or removing the faults entirely, must produce a different key
// for an otherwise identical point.
func TestFaultConfigChangesCacheKey(t *testing.T) {
	keyOf := func(f *faults.Config) string {
		t.Helper()
		cfg := pointConfig{Fig: "faults", Scale: Quick.String(), Workload: "phased",
			Options: iobehind.Options{Ranks: 2, Seed: 7, Faults: f}}
		p := runner.Point{Key: "same", Config: cfg}
		k, err := runner.CacheKey(p)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := figFaultsScenario(1)
	edited := figFaultsScenario(1)
	edited.Windows[0].Dur += 1e6 // one window stretched by a millisecond

	kBase, kEdited, kClean := keyOf(base), keyOf(edited), keyOf(nil)
	if kBase == kEdited {
		t.Fatal("editing a fault window left the cache key unchanged")
	}
	if kBase == kClean {
		t.Fatal("faulted and clean points share a cache key")
	}
	// Same config, freshly derived: the key is stable.
	if kBase != keyOf(figFaultsScenario(1)) {
		t.Fatal("identical fault configs hash to different keys")
	}
	// A different random seed is a different scenario, hence a new key.
	if keyOf(figFaultsScenario(2)) == kBase {
		t.Fatal("fault seed does not reach the cache key")
	}
}
