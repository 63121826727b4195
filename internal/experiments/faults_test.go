package experiments

import (
	"strings"
	"testing"

	"iobehind"
	"iobehind/internal/faults"
	"iobehind/internal/runner"
)

// TestFigFaultsQuick runs the seeded fault scenario at quick scale and
// asserts its built-in invariants: transient errors were retried, fault
// windows tainted phases, and the limiter recovered once they closed.
func TestFigFaultsQuick(t *testing.T) {
	res := runFig[*FigFaultsResult](t, runner.Serial(), FigFaultsExperiment(Quick))
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if out == "" || !strings.Contains(out, "faulted") {
		t.Fatalf("render missing the faulted column:\n%s", out)
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
