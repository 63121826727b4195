package experiments

import (
	"fmt"
	"strings"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// SeriesResult is a single traced run rendered as its application-level
// time series T, B, and (when limited) B_L — the format of Figs. 8, 9, 10,
// 13 and 14.
type SeriesResult struct {
	Name     string
	Strategy tmio.StrategyConfig
	Report   *tmio.Report
	T        *metrics.Series
	B        *metrics.Series
	BL       *metrics.Series
}

func newSeriesResult(name string, strat tmio.StrategyConfig, rep *tmio.Report) *SeriesResult {
	return &SeriesResult{
		Name:     name,
		Strategy: strat,
		Report:   rep,
		T:        rep.TSeries(),
		B:        rep.BSeries(),
		BL:       rep.BLSeries(),
	}
}

// ThrottledPeak returns the highest rank-level throughput among phases
// from index 2 on — after the limiter has taken effect. (The first phase
// always bursts: no limit exists before the first wait, which is what the
// purple "limit starts" line in the paper's figures marks.)
func (s *SeriesResult) ThrottledPeak() float64 {
	var max float64
	for _, ph := range s.Report.TPhases {
		if ph.Index >= 2 && ph.Value > max {
			max = ph.Value
		}
	}
	return max
}

// BurstPeak returns the highest rank-level throughput across all phases.
func (s *SeriesResult) BurstPeak() float64 {
	var max float64
	for _, ph := range s.Report.TPhases {
		if ph.Value > max {
			max = ph.Value
		}
	}
	return max
}

// Render prints the run's series as sparklines plus the key figures.
func (s *SeriesResult) Render() string {
	var b strings.Builder
	end := des.Time(s.Report.Runtime)
	fmt.Fprintf(&b, "== %s (%s) ==\n", s.Name, s.Strategy.Label())
	fmt.Fprintf(&b, "runtime %-10s required bandwidth B = %s\n",
		report.Seconds(s.Report.AppTime), report.Rate(s.Report.RequiredBandwidth))
	if s.Report.FirstLimitAt != 0 {
		fmt.Fprintf(&b, "limit first applied at %.1f s\n", s.Report.FirstLimitAt.Seconds())
	}
	fmt.Fprintf(&b, "T  peak %-12s |%s|\n", report.Rate(s.T.Max()), report.Sparkline(s.T, 0, end, 60))
	fmt.Fprintf(&b, "B  peak %-12s |%s|\n", report.Rate(s.B.Max()), report.Sparkline(s.B, 0, end, 60))
	if len(s.BL.Points) > 0 {
		fmt.Fprintf(&b, "BL peak %-12s |%s|\n", report.Rate(s.BL.Max()), report.Sparkline(s.BL, 0, end, 60))
	}
	d := s.Report.Distribution()
	fmt.Fprintf(&b, "exploit %s  lost %s  visible I/O %s\n",
		report.Pct(d.ExploitTotal()),
		report.Pct(d.AsyncWriteLost+d.AsyncReadLost),
		report.Pct(d.VisibleIO()))
	return b.String()
}

// seriesAt wraps point i's report as the named series result, preserving
// the serial path's error wrapping ("<name>: <cause>").
func seriesAt(results []runner.Result, i int, name string, strat tmio.StrategyConfig) (*SeriesResult, error) {
	rep, err := reportAt(results, i)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return newSeriesResult(name, strat, rep), nil
}

// singleSeriesExperiment builds a one-point experiment rendering as a
// series result.
func singleSeriesExperiment(name, key string, cfg pointConfig) *Experiment {
	return &Experiment{
		Fig:    cfg.Fig,
		Points: []runner.Point{newPoint(key, cfg)},
		Assemble: func(results []runner.Result) (Renderer, error) {
			return seriesAt(results, 0, name, cfg.Strategy)
		},
	}
}

// wacommSeriesConfig is the 96-rank run of Figs. 8 and 9.
func wacommSeriesConfig(scale Scale) (ranks int, cfg workloads.WacommConfig) {
	if scale == Paper {
		return 96, workloads.WacommConfig{}
	}
	return 16, workloads.WacommConfig{Particles: 400_000, Iterations: 10}
}

// Fig08Experiment enumerates the unthrottled 96-rank WaComM++ run: its
// bursts reach orders of magnitude above the requirement.
func Fig08Experiment(scale Scale) *Experiment {
	ranks, cfg := wacommSeriesConfig(scale)
	return singleSeriesExperiment("Fig. 8 — WaComM++ 96 ranks, no limit", "fig08/"+scale.String(), pointConfig{
		Fig: "8", Scale: scale.String(), Workload: "wacomm",
		Options: stormRun(ranks, 8, tmio.StrategyConfig{}), Wacomm: &cfg,
	})
}

// Fig09Experiment enumerates the up-only 96-rank WaComM++ run: T follows
// the previous phase's B_L instead of bursting.
func Fig09Experiment(scale Scale) *Experiment {
	ranks, cfg := wacommSeriesConfig(scale)
	return singleSeriesExperiment("Fig. 9 — WaComM++ 96 ranks, up-only", "fig09/"+scale.String(), pointConfig{
		Fig: "9", Scale: scale.String(), Workload: "wacomm",
		Options: stormRun(ranks, 8, tmio.StrategyConfig{Strategy: tmio.UpOnly, Tol: 1.1}), Wacomm: &cfg,
	})
}

// Fig10Result compares the 9216-rank WaComM++ run with the up-only
// strategy against the unrestricted run.
type Fig10Result struct {
	UpOnly *SeriesResult
	None   *SeriesResult
}

// Fig10Experiment enumerates the up-only and unrestricted runs.
func Fig10Experiment(scale Scale) *Experiment {
	ranks, cfg := 9216, workloads.WacommConfig{}
	if scale == Quick {
		ranks = 256
		cfg = workloads.WacommConfig{Particles: 400_000, Iterations: 10}
	}
	upStrat := tmio.StrategyConfig{Strategy: tmio.UpOnly, Tol: 1.1}
	noneStrat := tmio.StrategyConfig{}
	run := func(slug string, strat tmio.StrategyConfig) runner.Point {
		return newPoint("fig10/"+scale.String()+"/"+slug, pointConfig{
			Fig: "10", Scale: scale.String(), Workload: "wacomm",
			Options: stormRun(ranks, 10, strat), Wacomm: &cfg,
		})
	}
	return &Experiment{
		Fig:    "10",
		Points: []runner.Point{run("up-only", upStrat), run("no-limit", noneStrat)},
		Assemble: func(results []runner.Result) (Renderer, error) {
			up, err := seriesAt(results, 0, "Fig. 10 (top) — WaComM++ 9216 ranks, up-only", upStrat)
			if err != nil {
				return nil, err
			}
			none, err := seriesAt(results, 1, "Fig. 10 (bottom) — WaComM++ 9216 ranks, no limit", noneStrat)
			if err != nil {
				return nil, err
			}
			return &Fig10Result{UpOnly: up, None: none}, nil
		},
	}
}

// Speedup returns the limited run's speedup over the unrestricted run in
// percent (the paper reports ≈11.6%).
func (r *Fig10Result) Speedup() float64 {
	return r.UpOnly.Report.Speedup(r.None.Report)
}

// Render prints both runs plus the comparison line.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString(r.UpOnly.Render())
	b.WriteString("\n")
	b.WriteString(r.None.Render())
	fmt.Fprintf(&b, "\nspeedup of the limited run: %.1f%% (%s vs %s); exploit %s vs %s\n",
		r.Speedup(),
		report.Seconds(r.UpOnly.Report.AppTime), report.Seconds(r.None.Report.AppTime),
		report.Pct(r.UpOnly.Report.Distribution().ExploitTotal()),
		report.Pct(r.None.Report.Distribution().ExploitTotal()))
	return b.String()
}
