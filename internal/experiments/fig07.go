package experiments

import (
	"fmt"

	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// wacommSixRuns is the Fig. 7 run matrix: two repetitions each of the
// direct strategy (tol = 2), the up-only strategy (tol = 1.1), and no
// limiting.
func wacommSixRuns() []tmio.StrategyConfig {
	return []tmio.StrategyConfig{
		{Strategy: tmio.Direct, Tol: 2}, {Strategy: tmio.Direct, Tol: 2},
		{Strategy: tmio.UpOnly, Tol: 1.1}, {Strategy: tmio.UpOnly, Tol: 1.1},
		{}, {},
	}
}

// WacommDistRow is one (rank count, run) cell of the Fig. 7 sweep.
type WacommDistRow struct {
	Ranks    int
	Run      int
	Strategy tmio.StrategyConfig
	Report   *tmio.Report
}

// WacommDistResult covers Fig. 7: WaComM++'s application time distribution
// across rank counts and six runs.
type WacommDistResult struct {
	Scale Scale
	Rows  []WacommDistRow
}

// Fig07Experiment enumerates the six-run matrix per rank count.
func Fig07Experiment(scale Scale) *Experiment {
	ranks := []int{8, 24}
	cfg := workloads.WacommConfig{Particles: 200_000, Iterations: 8}
	if scale == Paper {
		ranks = []int{24, 48, 96, 192, 384, 768, 1536, 3072, 6144}
		cfg = workloads.WacommConfig{} // paper defaults: 2e6 particles, 50 h
	}
	type cell struct {
		ranks, run int
		strat      tmio.StrategyConfig
	}
	var cells []cell
	var points []runner.Point
	for _, n := range ranks {
		for run, strat := range wacommSixRuns() {
			key := fmt.Sprintf("fig07/%s/ranks=%d/run=%d", scale, n, run)
			cells = append(cells, cell{n, run, strat})
			points = append(points, newPoint(key, pointConfig{
				Fig: "7", Scale: scale.String(), Workload: "wacomm",
				Options: stormRun(n, int64(1000*n+run+1), strat), Wacomm: &cfg,
			}))
		}
	}
	return &Experiment{
		Fig:    "7",
		Points: points,
		Assemble: func(results []runner.Result) (Renderer, error) {
			res := &WacommDistResult{Scale: scale}
			for i, c := range cells {
				rep, err := reportAt(results, i)
				if err != nil {
					return nil, fmt.Errorf("fig07 ranks=%d run=%d: %w", c.ranks, c.run, err)
				}
				res.Rows = append(res.Rows, WacommDistRow{
					Ranks: c.ranks, Run: c.run, Strategy: c.strat, Report: rep,
				})
			}
			return res, nil
		},
	}
}

// Render prints the Fig. 7 bars as rows.
func (r *WacommDistResult) Render() string {
	t := report.NewTable("Fig. 7 — WaComM++ time distribution (percent of total rank time)",
		"ranks", "run", "strategy", "sync write", "async lost", "async exploit", "compute", "runtime")
	for _, row := range r.Rows {
		d := row.Report.Distribution()
		t.AddRow(
			fmt.Sprintf("%d", row.Ranks),
			fmt.Sprintf("%d", row.Run),
			row.Strategy.Label(),
			report.Pct(d.SyncWrite+d.SyncRead),
			report.Pct(d.AsyncWriteLost+d.AsyncReadLost),
			report.Pct(d.AsyncWriteExploit+d.AsyncReadExploit),
			report.Pct(d.ComputeFree),
			report.Seconds(row.Report.AppTime),
		)
	}
	return t.Render()
}

// MeanExploit returns the average exploit share for runs using the given
// strategy kind — limited runs must beat unlimited ones.
func (r *WacommDistResult) MeanExploit(strategy tmio.Strategy) float64 {
	var sum float64
	var n int
	for _, row := range r.Rows {
		if row.Strategy.Strategy != strategy {
			continue
		}
		sum += row.Report.Distribution().ExploitTotal()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
