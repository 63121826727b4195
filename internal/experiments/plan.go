// Sweep plans and the fabric's point builder. A Plan is a figure request
// resolved into one flat, deduplicated list of runner points. A
// runner.Point's Run/New funcs cannot travel the wire, but its config
// can: a point's config is the whole of its input, so a fabric worker
// decodes the config the submitter sent and builds the point with the
// same newPoint the local sweep uses (PointFromJSON). The cache key
// (SHA-256 over the point's config) is recomputed from the built point
// and compared with the submitter's, so any skew between submitter and
// worker binaries is caught before a wrong result can enter the cache.
package experiments

import (
	"encoding/json"
	"fmt"

	"iobehind/internal/cluster"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
)

// init fixes the bytes of every cache entry. gob numbers a type the
// first time the process encodes it, and writes those numbers into the
// stream, so the same result would encode differently after a process
// had encoded some other result type first. Encoding one zero value of
// each point result type here, in one fixed order, numbers them alike in
// every binary that links this package; no package initialized before
// this one encodes anything. A new point result type must join the list.
func init() {
	for _, v := range []any{tmio.Report{}, cluster.Result{}, fig04Payload{}, TracePointResult{}} {
		if _, err := runner.EncodeEntry(v); err != nil {
			panic(fmt.Sprintf("experiments: encode %T: %v", v, err))
		}
	}
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

// PointFromJSON builds the sweep point named key from config, the JSON
// encoding of its point config that runner.CacheKey hashes: it decodes
// the config and calls newPoint, so the point is the one the submitter
// enumerated as long as both binaries agree on the config, which the
// caller checks by comparing the built point's cache key with the
// submitter's. A trace replay is refused: its input is the trace file's
// content, of which the config carries only the hash.
func PointFromJSON(key string, config []byte) (runner.Point, error) {
	var cfg pointConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return runner.Point{}, fmt.Errorf("experiments: point %s: decode config: %w", key, err)
	}
	if cfg.TraceSHA != "" {
		return runner.Point{}, fmt.Errorf("experiments: point %s replays a trace file, which its config does not carry", key)
	}
	return newPoint(key, cfg), nil
}

// PlanEntry is one distinct experiment of a sweep plan.
type PlanEntry struct {
	// ID is the figure id the caller asked for (may alias, e.g. "6"→"5").
	ID string
	// Exp is the resolved experiment.
	Exp *Experiment
	// Offset is the index of the experiment's first point in the plan's
	// flat point slice.
	Offset int
}

// Plan is a figure request resolved into a flat, deduplicated sweep:
// the shared shape behind iosweep's local run and its fabric
// submission, so both enumerate byte-identical sweeps.
type Plan struct {
	Entries []PlanEntry
	Points  []runner.Point
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
		if id == "faults" {
			exp = FigFaultsExperimentSeeded(scale, faultSeed)
		} else if e, ok := ByFig(id, scale); ok {
			exp = e
		} else {
			return nil, fmt.Errorf("experiments: unknown figure %q", id)
		}
		if seen[exp.Fig] {
			continue
		}
		seen[exp.Fig] = true
		plan.Entries = append(plan.Entries, PlanEntry{ID: id, Exp: exp, Offset: len(plan.Points)})
		plan.Points = append(plan.Points, exp.Points...)
	}
	return plan, nil
}
