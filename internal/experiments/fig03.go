package experiments

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// Fig03Result makes the paper's Fig. 3 executable: rank 0 performing
// asynchronous I/O during its computational phases, with the required
// window Δt (submission → matching wait) next to the actual I/O time Δt°
// for every phase. The figure's point — Δt is steady (tied to the compute
// phase) while Δt° varies with file-system conditions — shows directly in
// the table when the run uses a noisy file system.
type Fig03Result struct {
	Report *tmio.Report
}

// Fig03Experiment enumerates the (single) traced run behind Fig. 3: a
// small phased application on a noisy file system, whose assembly
// tabulates rank 0's windows.
func Fig03Experiment(scale Scale) *Experiment {
	fs := pfs.Config{
		WriteCapacity: 4e9,
		ReadCapacity:  4e9,
		Noise: &pfs.NoiseConfig{
			Interval:  des.Duration(500 * des.Millisecond),
			Amplitude: 0.6,
		},
	}
	// The example is fixed-size; it runs in milliseconds at either scale.
	opts := stormRun(4, 3, tmio.StrategyConfig{})
	opts.FS = &fs
	point := newPoint("fig03/"+scale.String(), pointConfig{
		Fig: "3", Scale: scale.String(), Workload: "phased", Options: opts,
		Phased: &workloads.PhasedConfig{
			Phases:         8,
			BytesPerPhase:  256 << 20,
			Compute:        des.Second,
			JitterFraction: 0.05,
		},
	})
	return &Experiment{
		Fig:    "3",
		Points: []runner.Point{point},
		Assemble: func(results []runner.Result) (Renderer, error) {
			rep, err := reportAt(results, 0)
			if err != nil {
				return nil, fmt.Errorf("fig03: %w", err)
			}
			return &Fig03Result{Report: rep}, nil
		},
	}
}

// Render prints rank 0's per-phase windows: Δt (required) vs Δt° (actual).
func (r *Fig03Result) Render() string {
	t := report.NewTable(
		"Fig. 3 — rank 0: required windows Δt vs actual I/O times Δt°",
		"phase", "Δt (required)", "Δt° (actual)", "B_0j", "T_0j")
	tPhases := map[int]struct {
		dur des.Duration
		val float64
	}{}
	for _, ph := range r.Report.TPhases {
		if ph.Rank == 0 {
			tPhases[ph.Index] = struct {
				dur des.Duration
				val float64
			}{ph.End.Sub(ph.Start), ph.Value}
		}
	}
	for _, ph := range r.Report.BPhases {
		if ph.Rank != 0 {
			continue
		}
		actual := tPhases[ph.Index]
		t.AddRow(
			fmt.Sprintf("%d", ph.Index),
			report.Seconds(ph.End.Sub(ph.Start)),
			report.Seconds(actual.dur),
			report.Rate(ph.Value),
			report.Rate(actual.val),
		)
	}
	out := t.Render()
	out += "Δt follows the compute phase; Δt° varies with file-system load.\n"
	return out
}
