package experiments

import (
	"context"
	"fmt"
	"strings"

	"iobehind/internal/des"
	"iobehind/internal/region"
	"iobehind/internal/report"
	"iobehind/internal/runner"
)

// Fig04Result reproduces the paper's worked example of Fig. 4: three ranks
// with overlapping required-bandwidth phases aggregated into five regions
// by the Eq. 3 sweep. The figure is conceptual, so the experiment is exact
// rather than simulated — it exists to make the aggregation semantics
// executable and inspectable.
type Fig04Result struct {
	Phases []region.Phase
	Series *seriesWrap
}

// seriesWrap pairs the swept series with the sample instants used for
// rendering.
type seriesWrap struct {
	s   interface{ At(des.Time) float64 }
	end des.Time
}

// fig04Payload is the cacheable result of the exact aggregation point.
type fig04Payload struct {
	Phases []region.Phase
}

// Fig04Experiment enumerates the exact Eq. 3 aggregation as one point.
// Scale is ignored: the worked example is fixed.
func Fig04Experiment(scale Scale) *Experiment {
	sec := func(x float64) des.Time { return des.Time(des.DurationOf(x)) }
	// The figure's layout: B_{1,0} starts first, then B_{2,0}, then
	// B_{0,0}; they end in the same order, producing five regions.
	phases := []region.Phase{
		{Rank: 1, Index: 0, Start: sec(1), End: sec(6), Value: 30e6},
		{Rank: 2, Index: 0, Start: sec(2), End: sec(8), Value: 20e6},
		{Rank: 0, Index: 0, Start: sec(3), End: sec(10), Value: 50e6},
	}
	point := runner.Point{
		Key:    "fig04/" + scale.String(),
		Config: pointConfig{Fig: "4", Scale: scale.String(), Workload: "exact", Phases: phases},
		New:    func() any { return new(fig04Payload) },
		Run: func(context.Context) (any, error) {
			return &fig04Payload{Phases: phases}, nil
		},
	}
	return &Experiment{
		Fig:    "4",
		Points: []runner.Point{point},
		Assemble: func(results []runner.Result) (Renderer, error) {
			if err := results[0].Err; err != nil {
				return nil, fmt.Errorf("fig04: %w", err)
			}
			p, ok := results[0].Value.(*fig04Payload)
			if !ok {
				return nil, fmt.Errorf("point %s: unexpected result type %T", results[0].Key, results[0].Value)
			}
			return &Fig04Result{
				Phases: p.Phases,
				Series: &seriesWrap{s: region.Sweep("B_r", p.Phases), end: sec(11)},
			}, nil
		},
	}
}

// Render prints the rank phases and the resulting regions.
func (r *Fig04Result) Render() string {
	var b strings.Builder
	t := report.NewTable("Fig. 4 — rank-level required bandwidths",
		"rank", "phase", "ts", "te", "B_ij")
	for _, ph := range r.Phases {
		t.AddRow(
			fmt.Sprintf("%d", ph.Rank),
			fmt.Sprintf("%d", ph.Index),
			fmt.Sprintf("%.0f s", ph.Start.Seconds()),
			fmt.Sprintf("%.0f s", ph.End.Seconds()),
			report.Rate(ph.Value),
		)
	}
	b.WriteString(t.Render())

	rt := report.NewTable("Fig. 4 — the five overlap regions (Eq. 3)",
		"region", "from", "B_r")
	// Region boundaries are the sorted start/end times.
	boundaries := []float64{1, 2, 3, 6, 8}
	for i, at := range boundaries {
		v := r.Series.s.At(des.Time(des.DurationOf(at)) + 1)
		rt.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.0f s", at),
			report.Rate(v),
		)
	}
	b.WriteString(rt.Render())
	max := 0.0
	for _, at := range boundaries {
		if v := r.Series.s.At(des.Time(des.DurationOf(at)) + 1); v > max {
			max = v
		}
	}
	fmt.Fprintf(&b, "application-level required bandwidth B = max B_r = %s\n",
		report.Rate(max))
	return b.String()
}
