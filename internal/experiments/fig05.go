package experiments

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// HaccRuntimeRow is one (rank count, run) cell of the Fig. 5/6 sweep.
type HaccRuntimeRow struct {
	Ranks  int
	Run    int // 0 = direct strategy, 1 = no limit (paper's run labels)
	Report *tmio.Report
}

// HaccRuntimeResult covers Figs. 5 and 6: HACC-IO scaled over rank counts,
// run with the direct strategy (run 0) and without limiting (run 1), with
// the tracing overhead model enabled.
type HaccRuntimeResult struct {
	Scale Scale
	Rows  []HaccRuntimeRow
}

// Fig05Experiment enumerates the rank sweep: every rank count is run
// with the direct strategy (run 0) and without limiting (run 1), with
// the tracing overhead model enabled.
func Fig05Experiment(scale Scale) *Experiment {
	ranks := []int{1, 4, 16, 64}
	cfg := workloads.HaccConfig{Loops: 3, ParticlesPerRank: 500_000}
	if scale == Paper {
		ranks = []int{1, 6, 24, 96, 384, 1536, 9216}
		cfg = workloads.HaccConfig{} // paper defaults: 10 loops
	}
	type cell struct{ ranks, run int }
	var cells []cell
	var points []runner.Point
	for _, n := range ranks {
		for run, strat := range []tmio.StrategyConfig{
			{Strategy: tmio.Direct, Tol: 1.1},
			{},
		} {
			opts := stormRun(n, int64(100*n+run+1), strat)
			opts.Tracer = tmio.Config{} // this figure measures the tracing overhead
			key := fmt.Sprintf("fig05/%s/ranks=%d/run=%d", scale, n, run)
			cells = append(cells, cell{n, run})
			points = append(points, newPoint(key, pointConfig{
				Fig: "5", Scale: scale.String(), Workload: "hacc", Options: opts, Hacc: &cfg,
			}))
		}
	}
	return &Experiment{
		Fig:    "5",
		Points: points,
		Assemble: func(results []runner.Result) (Renderer, error) {
			res := &HaccRuntimeResult{Scale: scale}
			for i, c := range cells {
				rep, err := reportAt(results, i)
				if err != nil {
					return nil, fmt.Errorf("fig05 ranks=%d run=%d: %w", c.ranks, c.run, err)
				}
				res.Rows = append(res.Rows, HaccRuntimeRow{Ranks: c.ranks, Run: c.run, Report: rep})
			}
			return res, nil
		},
	}
}

// RenderFig5 prints the runtime curves: total, application, and overhead
// time versus rank count.
func (r *HaccRuntimeResult) RenderFig5() string {
	t := report.NewTable("Fig. 5 — HACC-IO runtime vs ranks (run 0 = direct, run 1 = no limit)",
		"ranks", "run", "total", "app", "overhead/rank", "overhead %")
	for _, row := range r.Rows {
		rep := row.Report
		perRank := (rep.PeriOverhead + rep.PostOverhead) / des.Duration(rep.Ranks)
		t.AddRow(
			fmt.Sprintf("%d", row.Ranks),
			fmt.Sprintf("%d", row.Run),
			report.Seconds(rep.Runtime),
			report.Seconds(rep.AppTime),
			report.Seconds(perRank),
			report.Pct(rep.OverheadShare()),
		)
	}
	return t.Render()
}

// RenderFig6 prints the time distribution: post/peri overhead, visible
// I/O, and compute shares.
func (r *HaccRuntimeResult) RenderFig6() string {
	t := report.NewTable("Fig. 6 — HACC-IO time distribution (percent of total rank time)",
		"ranks", "run", "overhead post", "overhead peri", "visible I/O", "hidden I/O", "compute")
	for _, row := range r.Rows {
		d := row.Report.Distribution()
		t.AddRow(
			fmt.Sprintf("%d", row.Ranks),
			fmt.Sprintf("%d", row.Run),
			report.Pct(d.OverheadPost),
			report.Pct(d.OverheadPeri),
			report.Pct(d.VisibleIO()),
			report.Pct(d.ExploitTotal()),
			report.Pct(d.ComputeFree),
		)
	}
	return t.Render()
}

// Render prints both figures.
func (r *HaccRuntimeResult) Render() string {
	return r.RenderFig5() + "\n" + r.RenderFig6()
}

// MaxOverheadShare returns the worst overhead share across all runs — the
// paper's "< 9% of total runtime" claim.
func (r *HaccRuntimeResult) MaxOverheadShare() float64 {
	var max float64
	for _, row := range r.Rows {
		if s := row.Report.OverheadShare(); s > max {
			max = s
		}
	}
	return max
}

// requiredBandwidthGrowth returns B at the smallest and largest rank count
// of run 1 (the paper quotes ≈0.7 GB/s at 1 rank to ≈58 GB/s at 9216).
func (r *HaccRuntimeResult) RequiredBandwidthGrowth() (small, large float64) {
	for _, row := range r.Rows {
		if row.Run != 1 {
			continue
		}
		if small == 0 {
			small = row.Report.RequiredBandwidth
		}
		large = row.Report.RequiredBandwidth
	}
	return small, large
}
