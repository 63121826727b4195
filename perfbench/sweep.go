package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/runner"
)

// sweepRound runs every point of plan through r, then assembles and
// renders every experiment in plan order. It returns the digest of all
// renders and the time assembly and rendering took together: the cost
// of re-rendering every figure from stored results. With a recorder,
// each point runs inside an "experiments.fig<ID>" span under
// "runner.run", and assembly and rendering get spans of their own.
func sweepRound(r *runner.Runner, plan *experiments.Plan, rec *recorder, op int) ([32]byte, time.Duration, error) {
	ctx := context.Background()
	root := rec.begin("sweep.round", -1, op)
	defer rec.end(root)
	runID := rec.begin("runner.run", root, op)
	results, err := r.Run(ctx, tracePoints(plan, rec, runID, op))
	rec.end(runID)
	var sum [32]byte
	if err != nil {
		return sum, 0, err
	}
	t0 := time.Now()
	h := sha256.New()
	for _, e := range plan.Entries {
		res := results[e.Offset : e.Offset+len(e.Exp.Points)]
		if err := runner.FirstErr(res); err != nil {
			return sum, 0, fmt.Errorf("figure %s: %w", e.ID, err)
		}
		id := rec.begin("experiments.assemble", root, op)
		out, err := e.Exp.Assemble(res)
		rec.end(id)
		if err != nil {
			return sum, 0, fmt.Errorf("figure %s: assemble: %w", e.ID, err)
		}
		id = rec.begin("experiments.render", root, op)
		text := out.Render()
		rec.end(id)
		fmt.Fprintf(h, "figure %s\n%s", e.ID, text)
	}
	h.Sum(sum[:0])
	return sum, time.Since(t0), nil
}

// tracePoints wraps each point's Run in a span named after its figure;
// without a recorder it returns the plan's points unchanged.
func tracePoints(plan *experiments.Plan, rec *recorder, parent, op int) []runner.Point {
	if rec == nil {
		return plan.Points
	}
	points := make([]runner.Point, len(plan.Points))
	for _, e := range plan.Entries {
		name := "experiments.fig" + e.Exp.Fig
		for i, p := range e.Exp.Points {
			run := p.Run
			p.Run = func(ctx context.Context) (any, error) {
				id := rec.begin(name, parent, op)
				defer rec.end(id)
				return run(ctx)
			}
			points[e.Offset+i] = p
		}
	}
	return points
}

// runSweep measures sweep-quick. Set-up builds the quick plan (the
// seed picks the fault figure's scenario) and renders one serial
// reference round; each op is one round through a two-worker runner.
func runSweep(cfg config) (*outcome, error) {
	o := &outcome{workUnit: "points"}
	var plan *experiments.Plan
	var ref [32]byte
	var serial []time.Duration
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p, err := experiments.BuildPlan(nil, experiments.Quick, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("build plan: %w", err)
		}
		t1 := time.Now()
		d, _, err := sweepRound(runner.Serial(), p, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("serial reference round: %w", err)
		}
		serial = append(serial, time.Since(t1))
		o.setups = append(o.setups, time.Since(t0))
		if i > 0 && d != ref {
			o.problem("serial reference renders differ between set-ups: %x vs %x", d, ref)
		}
		plan, ref = p, d
	}
	o.notes = append(o.notes, fmt.Sprintf("sweep-quick: %d points in %d experiments, %d workers, render digest %x",
		len(plan.Points), len(plan.Entries), workers(), ref[:8]))

	r := runner.New(runner.Options{Workers: workers()})
	round := func(rec *recorder, op int) (el, render time.Duration, ok bool) {
		t0 := time.Now()
		d, render, err := sweepRound(r, plan, rec, op)
		el = time.Since(t0)
		o.attempted++
		switch {
		case err != nil:
			o.failed++
			o.problem("round %d: %v", op, err)
		case d != ref:
			o.failed++
			o.problem("round %d renders %x, serial reference %x", op, d[:8], ref[:8])
		default:
			ok = true
		}
		return el, render, ok
	}
	round(nil, -1) // untimed warm-up
	o.attempted, o.failed = 0, 0

	err := measure(cfg.window, minOps, func(i int) error {
		if rec := cfg.tracer(i); rec != nil {
			el, _, _ := round(rec, i)
			o.traced = append(o.traced, el)
			id := rec.begin("experiments.plan", -1, i)
			p, err := experiments.BuildPlan(nil, experiments.Quick, cfg.seed)
			rec.end(id)
			if err == nil && len(p.Points) != len(plan.Points) {
				o.problem("plan rebuilt with %d points, set-up had %d", len(p.Points), len(plan.Points))
			}
			return err
		}
		el, render, ok := round(nil, i)
		o.ops = append(o.ops, el)
		o.queries = append(o.queries, render)
		if ok {
			o.work += float64(len(plan.Points))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		sweepLayers(o, cfg.rec, plan, serial)
	}
	return o, nil
}

// sweepLayers derives the experiments and runner metrics from the
// traced rounds' spans.
func sweepLayers(o *outcome, rec *recorder, plan *experiments.Plan, serial []time.Duration) {
	o.layer("experiments.plan_ms", rec.medianMs("experiments.plan"), "ms")
	o.layer("experiments.assemble_ms", rec.medianMs("experiments.assemble"), "ms")
	o.layer("experiments.render_ms", rec.medianMs("experiments.render"), "ms")
	for _, e := range plan.Entries {
		o.layer("experiments.fig"+e.Exp.Fig+"_ms", rec.medianMs("experiments.fig"+e.Exp.Fig), "ms")
	}

	// Per traced round: points executed, Σ point wall, and runner wall.
	type roundStats struct {
		points int
		busy   time.Duration
		wall   time.Duration
	}
	rounds := map[int]*roundStats{}
	for _, s := range rec.spans {
		if s.Op < 0 {
			continue
		}
		rs := rounds[s.Op]
		if rs == nil {
			rs = &roundStats{}
			rounds[s.Op] = rs
		}
		switch {
		case s.Name == "runner.run":
			rs.wall = s.End - s.Start
		case strings.HasPrefix(s.Name, "experiments.fig"):
			rs.points++
			rs.busy += s.End - s.Start
		}
	}
	var busy []float64
	for op, rs := range rounds {
		if rs.points != len(plan.Points) {
			o.problem("traced round %d ran %d points, plan has %d", op, rs.points, len(plan.Points))
		}
		busy = append(busy, rs.busy.Seconds()/(float64(workers())*rs.wall.Seconds()))
	}
	o.layer("runner.busy_frac", medianOf(busy), "fraction")
	o.layer("runner.serial_s", medianOf(seconds(serial)), "s")
	o.layer("runner.points", float64(len(plan.Points)), "count")
	o.layer("trace.sweep_overhead_ms", medianOf(millis(o.traced))-medianOf(millis(o.ops)), "ms")
}
