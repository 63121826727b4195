package experiments

import (
	"context"
	"fmt"
	"strings"

	"iobehind/internal/cluster"
	"iobehind/internal/des"
	"iobehind/internal/pfs"
	"iobehind/internal/report"
	"iobehind/internal/runner"
)

// ClusterResult covers Figs. 1 and 2: the eight-job scenario run once
// without restrictions and once with contention-only limiting of the
// asynchronous job.
type ClusterResult struct {
	Scale    Scale
	Base     *cluster.Result
	Limited  *cluster.Result
	BaseCfg  cluster.Config
	LimitCfg cluster.Config
}

// clusterPoint wraps one multi-job scenario run as a cacheable point.
func clusterPoint(key string, scale Scale, cfg cluster.Config) runner.Point {
	cfgCopy := cfg
	return runner.Point{
		Key:    key,
		Config: pointConfig{Fig: "1", Scale: scale.String(), Workload: "cluster", Cluster: &cfgCopy},
		New:    func() any { return new(cluster.Result) },
		Run:    func(context.Context) (any, error) { return cluster.Run(cfg) },
	}
}

// Fig01Experiment enumerates the scenario's two independent runs.
func Fig01Experiment(scale Scale) *Experiment {
	baseCfg := scenario(scale, cluster.NoLimit)
	limitCfg := scenario(scale, cluster.LimitDuringContention)
	return &Experiment{
		Fig: "1",
		Points: []runner.Point{
			clusterPoint("fig01/"+scale.String()+"/base", scale, baseCfg),
			clusterPoint("fig01/"+scale.String()+"/limited", scale, limitCfg),
		},
		Assemble: func(results []runner.Result) (Renderer, error) {
			base, err := clusterAt(results, 0)
			if err != nil {
				return nil, fmt.Errorf("fig01 base: %w", err)
			}
			limited, err := clusterAt(results, 1)
			if err != nil {
				return nil, fmt.Errorf("fig01 limited: %w", err)
			}
			return &ClusterResult{
				Scale: scale, Base: base, Limited: limited,
				BaseCfg: baseCfg, LimitCfg: limitCfg,
			}, nil
		},
	}
}

// clusterAt extracts point i's scenario result.
func clusterAt(results []runner.Result, i int) (*cluster.Result, error) {
	if err := results[i].Err; err != nil {
		return nil, err
	}
	res, ok := results[i].Value.(*cluster.Result)
	if !ok {
		return nil, fmt.Errorf("point %s: unexpected result type %T", results[i].Key, results[i].Value)
	}
	return res, nil
}

func scenario(scale Scale, policy cluster.LimitPolicy) cluster.Config {
	cfg := cluster.DefaultScenario(policy)
	if scale == Quick {
		fs := pfs.Config{WriteCapacity: 12e9, ReadCapacity: 12e9}
		cfg.FS = &fs
		cfg.Nodes = 64
		for i := range cfg.Jobs {
			cfg.Jobs[i].Nodes = max(2, cfg.Jobs[i].Nodes/16)
			cfg.Jobs[i].Loops = 4
			cfg.Jobs[i].Arrival /= 2
		}
	}
	return cfg
}

// RenderFig1 prints the per-job runtimes of both policies (the Gantt data
// behind Fig. 1) plus the running-jobs series.
func (r *ClusterResult) RenderFig1() string {
	var b strings.Builder
	t := report.NewTable("Fig. 1 — job runtimes, without vs with contention-only limiting of the async job",
		"job", "nodes", "async", "runtime (no limit)", "runtime (limited)", "delta")
	for i := range r.Base.Jobs {
		base, lim := r.Base.Jobs[i], r.Limited.Jobs[i]
		delta := 100 * (lim.Runtime().Seconds() - base.Runtime().Seconds()) /
			base.Runtime().Seconds()
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", base.Nodes),
			fmt.Sprintf("%v", base.Async),
			report.Seconds(base.Runtime()),
			report.Seconds(lim.Runtime()),
			fmt.Sprintf("%+.1f%%", delta),
		)
	}
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "makespan: %s -> %s; limit toggles: %d\n\n",
		report.Seconds(des.Duration(r.Base.Makespan)),
		report.Seconds(des.Duration(r.Limited.Makespan)),
		r.Limited.LimitToggles)
	horizon := r.Base.Makespan
	if r.Limited.Makespan > horizon {
		horizon = r.Limited.Makespan
	}
	for _, variant := range []struct {
		name string
		res  *cluster.Result
	}{{"without limit", r.Base}, {"with limit", r.Limited}} {
		rows := make([]report.GanttRow, len(variant.res.Jobs))
		for i, j := range variant.res.Jobs {
			label := fmt.Sprintf("job %d", i)
			if j.Async {
				label += "*"
			}
			rows[i] = report.GanttRow{Label: label, Start: j.Started, End: j.Ended}
		}
		b.WriteString(report.Gantt("job timeline ("+variant.name+"; * = async)",
			rows, horizon, 60))
	}
	return b.String()
}

// RenderFig2 prints the bandwidth-over-time distribution of both cases.
func (r *ClusterResult) RenderFig2() string {
	var b strings.Builder
	for _, variant := range []struct {
		name string
		res  *cluster.Result
	}{{"Without Limit", r.Base}, {"With Limit", r.Limited}} {
		fmt.Fprintf(&b, "== Fig. 2 — bandwidth distribution: %s ==\n", variant.name)
		end := variant.res.Makespan
		for i, s := range variant.res.Bandwidth {
			async := ""
			if r.Base.Jobs[i].Async {
				async = " (async)"
			}
			fmt.Fprintf(&b, "job %d%-8s peak %-12s |%s|\n",
				i, async, report.Rate(s.Max()), report.Sparkline(s, 0, end, 60))
		}
	}
	return b.String()
}

// Render prints both figures.
func (r *ClusterResult) Render() string {
	return r.RenderFig1() + "\n" + r.RenderFig2()
}
