package experiments

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/faults"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// figFaultsScenario is the injected degradation sequence of the fault
// experiment: an outage, a deep capacity degradation, a server stall, and
// a long transient-error window, all on the write channel, plus a small
// seeded-random batch. The scripted windows sit well inside the phased
// run so every kind demonstrably hits traffic.
func figFaultsScenario(seed int64) *faults.Config {
	return &faults.Config{
		Windows: []faults.Window{
			{Kind: faults.IOError, Class: pfs.Write,
				Start: des.Time(des.Second), Dur: 6 * des.Second, Prob: 0.25},
			{Kind: faults.Outage, Class: pfs.Write,
				Start: des.Time(2500 * des.Millisecond), Dur: 400 * des.Millisecond},
			{Kind: faults.Degrade, Class: pfs.Write,
				Start: des.Time(4500 * des.Millisecond), Dur: des.Second, Factor: 0.25},
			{Kind: faults.ServerStall, Class: pfs.Write,
				Start: des.Time(6 * des.Second), Dur: des.Second, Factor: 6},
		},
		Random: &faults.RandomConfig{
			Seed:    seed,
			Count:   3,
			Horizon: 8 * des.Second,
			MeanDur: 300 * des.Millisecond,
		},
	}
}

// FigFaultsResult compares a phased run on healthy hardware against the
// identical run under the injected fault scenario: the bandwidth-
// requirement curve, the retry/fault accounting, and the limiter's
// recovery after the windows close.
type FigFaultsResult struct {
	Scale   Scale
	Seed    int64
	Windows []faults.Window
	Clean   *tmio.Report
	Faulted *tmio.Report
}

// FigFaultsExperiment enumerates the fault experiment at fault seed 1.
func FigFaultsExperiment(scale Scale) *Experiment {
	return FigFaultsExperimentSeeded(scale, 1)
}

// FigFaultsExperimentSeeded enumerates the clean and faulted runs; seed
// drives the scenario's random window batch (and nothing else — the
// engine seed is fixed, so two invocations with the same fault seed are
// byte-for-byte identical).
func FigFaultsExperimentSeeded(scale Scale, seed int64) *Experiment {
	if seed == 0 {
		seed = 1
	}
	fs := pfs.Config{WriteCapacity: 4e9, ReadCapacity: 4e9}
	ranks := 4
	phases := 10
	if scale == Paper {
		ranks, phases = 16, 12
	}
	base := spec{
		ranks:    ranks,
		seed:     7,
		strategy: tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1},
		agent:    stormAgent(),
		tracer:   tmio.Config{DisableOverhead: true},
		fsCfg:    &fs,
	}
	wl := workloads.PhasedConfig{
		Phases:         phases,
		BytesPerPhase:  256 << 20,
		Compute:        des.Second,
		JitterFraction: 0.05,
	}
	scenario := figFaultsScenario(seed)

	point := func(sp spec, tag string) runner.Point {
		pcfg := sp.config("faults", scale, "phased")
		pcfg.Phased = &wl
		key := fmt.Sprintf("figfaults/%s/s%d/%s", scale.String(), seed, tag)
		return simPoint(key, pcfg, sp,
			func(sys *mpiio.System) func(*mpi.Rank) { return workloads.PhasedMain(sys, wl) })
	}
	faulted := base
	faulted.faults = scenario

	return &Experiment{
		Fig:  "faults",
		Seed: seed,
		Points: []runner.Point{
			point(base, "clean"),
			point(faulted, "faulted"),
		},
		Assemble: func(results []runner.Result) (Renderer, error) {
			clean, err := reportAt(results, 0)
			if err != nil {
				return nil, fmt.Errorf("figfaults: clean: %w", err)
			}
			fr, err := reportAt(results, 1)
			if err != nil {
				return nil, fmt.Errorf("figfaults: faulted: %w", err)
			}
			// Re-resolve the window list (scripted + generated) the way the
			// run did, without touching a live engine.
			inj := faults.New(des.NewEngine(1), nil, *scenario)
			return &FigFaultsResult{
				Scale:   scale,
				Seed:    seed,
				Windows: inj.Windows(),
				Clean:   clean,
				Faulted: fr,
			}, nil
		},
	}
}

// lastLimit returns the final applied-limit value of a run (0 when no
// limit was ever derived) and when it was derived.
func lastLimit(rep *tmio.Report) (float64, des.Time) {
	var v float64
	var at des.Time
	for _, ph := range rep.BLPhases {
		if ph.Start >= at {
			at = ph.Start
			v = ph.Value
		}
	}
	return v, at
}

// Check asserts the scenario's invariants: faults were hit (nonzero
// retries, tainted phases), and the limiter recovered — a fresh limit was
// derived from a clean phase after the last fault window closed, within a
// factor of three of the clean run's final limit. cmd/iosweep's
// -check-faults flag calls it.
func (r *FigFaultsResult) Check() error {
	if r.Faulted.Retries == 0 {
		return fmt.Errorf("figfaults: no transient-error retries under an IOError window")
	}
	if r.Faulted.FaultPhases == 0 {
		return fmt.Errorf("figfaults: no phase was marked faulty")
	}
	var lastEnd des.Time
	for _, w := range r.Windows {
		if w.End() > lastEnd {
			lastEnd = w.End()
		}
	}
	cleanLimit, _ := lastLimit(r.Clean)
	faultLimit, at := lastLimit(r.Faulted)
	if cleanLimit <= 0 || faultLimit <= 0 {
		return fmt.Errorf("figfaults: missing applied limits (clean %g, faulted %g)", cleanLimit, faultLimit)
	}
	if at < lastEnd {
		return fmt.Errorf("figfaults: no limit derived after the last fault window (last at %v, windows end %v)", at, lastEnd)
	}
	if ratio := faultLimit / cleanLimit; ratio < 1.0/3 || ratio > 3 {
		return fmt.Errorf("figfaults: recovered limit %g diverged from clean limit %g (ratio %.2f)", faultLimit, cleanLimit, ratio)
	}
	return nil
}

// Render prints the clean-vs-faulted comparison and the window list.
func (r *FigFaultsResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Faults — phased workload under injected degradation (fault seed %d)", r.Seed),
		"run", "runtime", "B required", "final B_L", "retries", "exhausted", "fault phases")
	row := func(name string, rep *tmio.Report) {
		limit, _ := lastLimit(rep)
		t.AddRow(name,
			report.Seconds(rep.Runtime),
			report.Rate(rep.RequiredBandwidth),
			report.Rate(limit),
			fmt.Sprintf("%d", rep.Retries),
			fmt.Sprintf("%d", rep.RetriesExhausted),
			fmt.Sprintf("%d", rep.FaultPhases),
		)
	}
	row("clean", r.Clean)
	row("faulted", r.Faulted)
	out := t.Render()
	out += "Injected windows:\n"
	for _, w := range r.Windows {
		extra := ""
		switch w.Kind {
		case faults.Degrade, faults.ServerStall, faults.Straggler:
			extra = fmt.Sprintf(" factor %.2f", w.Factor)
		case faults.IOError:
			extra = fmt.Sprintf(" prob %.2f", w.Prob)
		}
		out += fmt.Sprintf("  %-12s %-5s %v + %v%s\n",
			w.Kind, w.Class, w.Start, w.Dur, extra)
	}
	out += "Tainted phases derive no limit; the first clean phase recovers it.\n"
	return out
}
