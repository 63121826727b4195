// Serializable point registry: the bridge between the in-process sweep
// (runner.Point values carrying closures) and the distributed fabric,
// whose coordinator and workers live in different processes. A
// runner.Point's Run/New funcs cannot travel the wire; what can is a
// PointRef — (figure, scale, fault seed, index) — because every built-in
// experiment is a pure function of those inputs. A worker resolves the
// ref through the same constructors the local sweep uses, so the point
// it executes is the point the submitter enumerated; the cache key
// (SHA-256 over the point's config) is recomputed on both sides and
// compared, so any skew between submitter and worker binaries is caught
// before a wrong result can enter the cache.
package experiments

import (
	"encoding/gob"
	"fmt"

	"iobehind/internal/cluster"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
)

// init registers the manifest config types with gob: fabric wire
// messages carry each point's Config as an `any` for the worker-side
// cache-key crosscheck, and gob refuses unregistered concrete types on
// interface-typed fields. Every built-in experiment keys its points with
// pointConfig, so this one registration covers the whole registry.
//
// It then fixes the bytes of every cache entry. gob numbers a type the
// first time the process encodes it, and writes those numbers into the
// stream, so the same result would encode differently after a process
// had encoded some other result type first. Encoding one zero value of
// each point result type here, in one fixed order, numbers them alike in
// every binary that links this package; no package initialized before
// this one encodes anything. A new point result type must join the list.
func init() {
	gob.Register(pointConfig{})
	for _, v := range []any{tmio.Report{}, cluster.Result{}, fig04Payload{}, TracePointResult{}} {
		if _, err := runner.EncodeEntry(v); err != nil {
			panic(fmt.Sprintf("experiments: encode %T: %v", v, err))
		}
	}
}

// PointRef is the serializable identity of one built-in sweep point —
// everything a worker needs to rebuild the runner.Point locally.
type PointRef struct {
	// Fig is the experiment id as in FigOrder ("1", "5", "faults", ...).
	Fig string
	// Scale is the experiment scale ("quick" or "paper").
	Scale string
	// FaultSeed seeds the fault scenario's random window batch; it is
	// meaningful only for Fig "faults" and 0 means the default seed.
	FaultSeed int64 `json:",omitempty"`
	// Index is the point's position in the experiment's enumeration.
	Index int
	// Key is the expected runner.Point.Key at Index — an integrity check
	// that resolution reproduced the same enumeration.
	Key string
}

// String names the ref for logs.
func (r PointRef) String() string {
	return fmt.Sprintf("%s/%s[%d] %s", r.Fig, r.Scale, r.Index, r.Key)
}

// ParseScale parses a scale name as printed by Scale.String.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "paper":
		return Paper, nil
	}
	return Quick, fmt.Errorf("experiments: unknown scale %q (want quick or paper)", s)
}

// experimentFor rebuilds the experiment a ref points into.
func experimentFor(fig string, scale Scale, faultSeed int64) (*Experiment, error) {
	if fig == "faults" && faultSeed != 0 {
		return FigFaultsExperimentSeeded(scale, faultSeed), nil
	}
	exp, ok := ByFig(fig, scale)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q", fig)
	}
	return exp, nil
}

// ResolvePoint rebuilds the runner.Point a ref names, re-running the
// experiment's deterministic enumeration and checking the point key
// matches. External-input experiments (trace-file replays) are not
// resolvable — their input is file content, not a figure id — and were
// never enumerable into a ref in the first place.
func ResolvePoint(ref PointRef) (runner.Point, error) {
	scale, err := ParseScale(ref.Scale)
	if err != nil {
		return runner.Point{}, err
	}
	exp, err := experimentFor(ref.Fig, scale, ref.FaultSeed)
	if err != nil {
		return runner.Point{}, err
	}
	if ref.Index < 0 || ref.Index >= len(exp.Points) {
		return runner.Point{}, fmt.Errorf("experiments: ref %s: index out of range (experiment has %d points)",
			ref, len(exp.Points))
	}
	p := exp.Points[ref.Index]
	if ref.Key != "" && p.Key != ref.Key {
		return runner.Point{}, fmt.Errorf("experiments: ref %s resolved to point %q — submitter and worker enumerate different sweeps (version skew?)",
			ref, p.Key)
	}
	return p, nil
}

// ExperimentRefs enumerates the refs of exp's points. exp must be a
// built-in experiment (its Fig registered in ByFig); the refs resolve
// through ResolvePoint on any process running the same code.
func ExperimentRefs(exp *Experiment, scale Scale) []PointRef {
	refs := make([]PointRef, len(exp.Points))
	for i, p := range exp.Points {
		refs[i] = PointRef{
			Fig:       exp.Fig,
			Scale:     scale.String(),
			FaultSeed: exp.Seed,
			Index:     i,
			Key:       p.Key,
		}
	}
	return refs
}

// PlanEntry is one distinct experiment of a sweep plan.
type PlanEntry struct {
	// ID is the figure id the caller asked for (may alias, e.g. "6"→"5").
	ID string
	// Exp is the resolved experiment.
	Exp *Experiment
	// Offset is the index of the experiment's first point in the plan's
	// flat point (and ref) slice.
	Offset int
}

// Plan is a figure request resolved into a flat, deduplicated sweep:
// the shared shape behind iosweep's local run, its fabric submission,
// and iofabric's self-run, so all three enumerate byte-identical sweeps.
type Plan struct {
	Entries []PlanEntry
	Points  []runner.Point
	Refs    []PointRef
}

// BuildPlan resolves figure ids (nil or ["all"] means FigOrder) at the
// given scale into a plan. Figures sharing an experiment (1+2, 5+6) are
// swept once. faultSeed seeds the "faults" figure's scenario.
func BuildPlan(ids []string, scale Scale, faultSeed int64) (*Plan, error) {
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = FigOrder
	}
	plan := &Plan{}
	seen := make(map[string]bool)
	for _, id := range ids {
		var exp *Experiment
		var err error
		if id == "faults" {
			exp, err = experimentFor(id, scale, faultSeed)
		} else {
			exp, err = experimentFor(id, scale, 0)
		}
		if err != nil {
			return nil, err
		}
		if seen[exp.Fig] {
			continue
		}
		seen[exp.Fig] = true
		plan.Entries = append(plan.Entries, PlanEntry{ID: id, Exp: exp, Offset: len(plan.Points)})
		plan.Points = append(plan.Points, exp.Points...)
		plan.Refs = append(plan.Refs, ExperimentRefs(exp, scale)...)
	}
	return plan, nil
}
