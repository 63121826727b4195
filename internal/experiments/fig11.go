package experiments

import (
	"fmt"
	"strings"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// haccEightRuns is the Fig. 11 run matrix: two repetitions each of direct,
// up-only, adaptive (all tol = 1.1), and no limiting.
func haccEightRuns() []tmio.StrategyConfig {
	return []tmio.StrategyConfig{
		{Strategy: tmio.Direct, Tol: 1.1}, {Strategy: tmio.Direct, Tol: 1.1},
		{Strategy: tmio.UpOnly, Tol: 1.1}, {Strategy: tmio.UpOnly, Tol: 1.1},
		{Strategy: tmio.Adaptive, Tol: 1.1}, {Strategy: tmio.Adaptive, Tol: 1.1},
		{}, {},
	}
}

// HaccDistRow is one (rank count, run) cell of the Fig. 11 sweep.
type HaccDistRow struct {
	Ranks    int
	Run      int
	Strategy tmio.StrategyConfig
	Report   *tmio.Report
}

// HaccDistResult covers Fig. 11: HACC-IO's time distribution across rank
// counts under all three strategies and without limiting.
type HaccDistResult struct {
	Scale Scale
	Rows  []HaccDistRow
}

// Fig11Experiment enumerates the eight-run matrix per rank count.
func Fig11Experiment(scale Scale) *Experiment {
	ranks := []int{8, 32}
	cfg := workloads.HaccConfig{Loops: 3, ParticlesPerRank: 500_000}
	if scale == Paper {
		ranks = []int{96, 768, 3072, 9216}
		cfg = workloads.HaccConfig{}
	}
	type cell struct {
		ranks, run int
		strat      tmio.StrategyConfig
	}
	var cells []cell
	var points []runner.Point
	for _, n := range ranks {
		for run, strat := range haccEightRuns() {
			key := fmt.Sprintf("fig11/%s/ranks=%d/run=%d", scale, n, run)
			cells = append(cells, cell{n, run, strat})
			points = append(points, newPoint(key, pointConfig{
				Fig: "11", Scale: scale.String(), Workload: "hacc",
				Options: stormRun(n, int64(10_000*n+run+1), strat), Hacc: &cfg,
			}))
		}
	}
	return &Experiment{
		Fig:    "11",
		Points: points,
		Assemble: func(results []runner.Result) (Renderer, error) {
			res := &HaccDistResult{Scale: scale}
			for i, c := range cells {
				rep, err := reportAt(results, i)
				if err != nil {
					return nil, fmt.Errorf("fig11 ranks=%d run=%d: %w", c.ranks, c.run, err)
				}
				res.Rows = append(res.Rows, HaccDistRow{
					Ranks: c.ranks, Run: c.run, Strategy: c.strat, Report: rep,
				})
			}
			return res, nil
		},
	}
}

// Render prints the Fig. 11 bars as rows.
func (r *HaccDistResult) Render() string {
	t := report.NewTable("Fig. 11 — HACC-IO time distribution (percent of total rank time)",
		"ranks", "run", "strategy",
		"sync r+w", "read lost", "write lost", "read exploit", "write exploit", "compute", "runtime")
	for _, row := range r.Rows {
		d := row.Report.Distribution()
		t.AddRow(
			fmt.Sprintf("%d", row.Ranks),
			fmt.Sprintf("%d", row.Run),
			row.Strategy.Label(),
			report.Pct(d.SyncWrite+d.SyncRead),
			report.Pct(d.AsyncReadLost),
			report.Pct(d.AsyncWriteLost),
			report.Pct(d.AsyncReadExploit),
			report.Pct(d.AsyncWriteExploit),
			report.Pct(d.ComputeFree),
			report.Seconds(row.Report.AppTime),
		)
	}
	return t.Render()
}

// ExploitByStrategy averages the exploit share of the runs per strategy.
func (r *HaccDistResult) ExploitByStrategy() map[tmio.Strategy]float64 {
	sums := map[tmio.Strategy]float64{}
	counts := map[tmio.Strategy]int{}
	for _, row := range r.Rows {
		sums[row.Strategy.Strategy] += row.Report.Distribution().ExploitTotal()
		counts[row.Strategy.Strategy]++
	}
	out := map[tmio.Strategy]float64{}
	for k, v := range sums {
		out[k] = v / float64(counts[k])
	}
	return out
}

// Fig13Result holds the four 9216-rank HACC-IO series runs: direct,
// up-only, adaptive, and no limit.
type Fig13Result struct {
	Runs []*SeriesResult
}

// Fig13Experiment enumerates the four strategy runs of the large-scale
// HACC-IO time series. The phase length is fixed at 5 s so ten loops
// span ≈100 s, matching the x-axes of the paper's Fig. 13.
func Fig13Experiment(scale Scale) *Experiment {
	ranks := 9216
	// 300k particles per rank (11.4 MB): the aggregate burst occupies the
	// file system for ~1 s of each 5 s phase, leaving room for the
	// limiter to flatten it (with the default 5.5M particles the 9216-rank
	// aggregate would need 4× the file system's capacity per phase).
	cfg := workloads.HaccConfig{FixedPhase: 5 * des.Second, ParticlesPerRank: 300_000}
	if scale == Quick {
		ranks = 64
		cfg = workloads.HaccConfig{FixedPhase: des.Second, Loops: 4, ParticlesPerRank: 500_000}
	}
	strategies := []struct {
		name  string
		slug  string
		strat tmio.StrategyConfig
	}{
		{"Fig. 13 — HACC-IO 9216 ranks, direct", "direct", tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1}},
		{"Fig. 13 — HACC-IO 9216 ranks, up-only", "up-only", tmio.StrategyConfig{Strategy: tmio.UpOnly, Tol: 1.1}},
		{"Fig. 13 — HACC-IO 9216 ranks, adaptive", "adaptive", tmio.StrategyConfig{Strategy: tmio.Adaptive, Tol: 1.1}},
		{"Fig. 13 — HACC-IO 9216 ranks, no limit", "no-limit", tmio.StrategyConfig{}},
	}
	var points []runner.Point
	for i, s := range strategies {
		key := fmt.Sprintf("fig13/%s/%s", scale, s.slug)
		points = append(points, newPoint(key, pointConfig{
			Fig: "13", Scale: scale.String(), Workload: "hacc",
			Options: stormRun(ranks, int64(13_000+i), s.strat), Hacc: &cfg,
		}))
	}
	return &Experiment{
		Fig:    "13",
		Points: points,
		Assemble: func(results []runner.Result) (Renderer, error) {
			res := &Fig13Result{}
			for i, s := range strategies {
				run, err := seriesAt(results, i, s.name, s.strat)
				if err != nil {
					return nil, err
				}
				res.Runs = append(res.Runs, run)
			}
			return res, nil
		},
	}
}

// Render prints all four series.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	for i, run := range r.Runs {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(run.Render())
	}
	return b.String()
}

// Fig14Experiment enumerates HACC-IO at 1536 ranks with the direct
// strategy on a *noisy* file system: I/O variability keeps the
// throughput below the applied limit, which causes the short waiting
// phases the paper discusses.
func Fig14Experiment(scale Scale) *Experiment {
	ranks := 1536
	// 64 GB/s aggregate demand against the 106 GB/s system: the noise
	// dips below the demand and cause the short waits the figure shows.
	cfg := workloads.HaccConfig{FixedPhase: 5 * des.Second, ParticlesPerRank: 5_500_000}
	fs := pfs.LichtenbergConfig()
	if scale == Quick {
		ranks = 48
		cfg = workloads.HaccConfig{FixedPhase: des.Second, Loops: 6, ParticlesPerRank: 2_000_000}
		// A slow file system keeps the 48-rank run under pressure, like
		// 1536 ranks keep the 106 GB/s system under pressure.
		fs = pfs.Config{WriteCapacity: 5e9, ReadCapacity: 5e9}
	}
	fs.Noise = &pfs.NoiseConfig{
		Interval:       des.Duration(2 * des.Second),
		Amplitude:      0.5,
		DipProbability: 0.1,
		DipFloor:       0.15,
	}
	opts := stormRun(ranks, 14, tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1})
	opts.FS = &fs
	return singleSeriesExperiment("Fig. 14 — HACC-IO 1536 ranks, direct, noisy file system", "fig14/"+scale.String(),
		pointConfig{Fig: "14", Scale: scale.String(), Workload: "hacc", Options: opts, Hacc: &cfg})
}
