// Package experiments reproduces every figure of the paper's evaluation
// as a parameterized, runnable experiment. Each FigNNExperiment
// constructor enumerates the workloads behind the corresponding figure;
// RunExperiment runs them and returns a result whose Render method
// prints the rows or series the paper reports.
//
// Two scales are provided: Quick shrinks rank counts and loop counts so
// the whole suite runs in seconds (used by tests and the default
// benchmarks); Paper uses the paper's configurations (up to 9216 ranks,
// minutes of wall time for the largest runs).
//
// Every figure is decomposed into independent sweep points — one
// deterministic simulation per (strategy, rank count) cell — enumerated
// as an Experiment and executed through internal/runner. The runner
// fans the points across its worker pool and, when it carries a cache,
// skips points whose configuration already ran. Every worker count
// produces byte-identical rendered output: results are assembled in
// point-enumeration order regardless of completion order, and each
// point's simulation is a pure function of its seed and config.
package experiments

import (
	"context"
	"fmt"

	"iobehind"
	"iobehind/internal/adio"
	"iobehind/internal/cluster"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/region"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// Scale selects the experiment size.
type Scale int

const (
	// Quick shrinks experiments to run in seconds.
	Quick Scale = iota
	// Paper uses the paper's configurations.
	Paper
)

// String names the scale.
func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "quick"
}

// stormRun returns the options of a paper-shape traced run. Its I/O
// agents carry the calibrated storm: server queuing that makes burst
// operations visible (≈3% exploit for unthrottled runs at 9216 ranks)
// and the rare scheduling hiccups of unpaced I/O threads that slow the
// unthrottled runs at scale (the ≈11.6% effect of Fig. 10); see
// DESIGN.md for the calibration. Its tracer charges no simulated time
// (Fig. 5, which measures the tracer's overhead, turns the charge back
// on).
func stormRun(ranks int, seed int64, strat tmio.StrategyConfig) iobehind.Options {
	return iobehind.Options{
		Ranks:    ranks,
		Seed:     seed,
		Strategy: strat,
		Agent: adio.Config{
			HiccupProb:          6e-4,
			HiccupMean:          150 * des.Millisecond,
			QueueLatencyPerFlow: 10 * des.Microsecond,
		},
		Tracer: tmio.Config{DisableOverhead: true},
	}
}

// Renderer is any experiment result that can print itself.
type Renderer interface{ Render() string }

// Experiment is one figure's sweep decomposed into independent runner
// points, plus the assembly that turns the point results — delivered in
// point order — back into the figure's renderable result.
type Experiment struct {
	// Fig is the canonical figure id; figures sharing one experiment
	// ("2" with "1", "6" with "5") share the id of the lower figure.
	Fig      string
	Points   []runner.Point
	Assemble func(results []runner.Result) (Renderer, error)
}

// RunExperiment executes exp's points through r and assembles the
// figure result.
func RunExperiment(ctx context.Context, r *runner.Runner, exp *Experiment) (Renderer, error) {
	results, err := r.Run(ctx, exp.Points)
	if err != nil {
		return nil, err
	}
	return exp.Assemble(results)
}

// FigOrder lists each distinct experiment once, in figure order — the
// iteration order of "run everything".
var FigOrder = []string{"1", "3", "4", "5", "7", "8", "9", "10", "11", "13", "14", "faults", "trace"}

// experimentsByFig maps every figure id to its experiment constructor.
var experimentsByFig = map[string]func(Scale) *Experiment{
	"1": Fig01Experiment, "2": Fig01Experiment,
	"3": Fig03Experiment, "4": Fig04Experiment,
	"5": Fig05Experiment, "6": Fig05Experiment,
	"7": Fig07Experiment, "8": Fig08Experiment,
	"9": Fig09Experiment, "10": Fig10Experiment,
	"11": Fig11Experiment, "13": Fig13Experiment,
	"14": Fig14Experiment, "faults": FigFaultsExperiment,
	"trace": FigTraceExperiment,
}

// ByFig returns the experiment behind a figure id ("1".."14"; "2" and
// "6" resolve to the experiments of Figs. 1 and 5, which render them).
func ByFig(fig string, scale Scale) (*Experiment, bool) {
	ctor, ok := experimentsByFig[fig]
	if !ok {
		return nil, false
	}
	return ctor(scale), true
}

// pointConfig is the canonical, hashable identity of one sweep point,
// and the whole of its input: newPoint builds the point's Run from the
// config alone. It is JSON-encoded into the cache key, so any change
// here (or to the structs it embeds) invalidates exactly the affected
// points. A traced run is the embedded facade Options plus exactly one
// workload config; Cluster and Phases carry the inputs of Figs. 1 and 4.
type pointConfig struct {
	Fig      string
	Scale    string
	Workload string
	iobehind.Options
	Hacc    *workloads.HaccConfig   `json:",omitempty"`
	Wacomm  *workloads.WacommConfig `json:",omitempty"`
	Phased  *workloads.PhasedConfig `json:",omitempty"`
	Ior     *workloads.IorConfig    `json:",omitempty"`
	Cluster *cluster.Config         `json:",omitempty"`
	Phases  []region.Phase          `json:",omitempty"` // Fig. 4's exact inputs
	// TraceSHA is the SHA-256 of a replayed trace file's raw bytes: the
	// trace *content* is the point's input, so any byte change must miss.
	TraceSHA string `json:",omitempty"`
}

// main returns the per-rank main of the workload cfg configures.
func (cfg pointConfig) main(sys *mpiio.System) func(*mpi.Rank) {
	switch {
	case cfg.Hacc != nil:
		return workloads.HaccMain(sys, *cfg.Hacc)
	case cfg.Wacomm != nil:
		return workloads.WacommMain(sys, *cfg.Wacomm)
	case cfg.Phased != nil:
		return workloads.PhasedMain(sys, *cfg.Phased)
	case cfg.Ior != nil:
		return workloads.IorMain(sys, *cfg.Ior)
	}
	panic(fmt.Sprintf("experiments: point %s/%s configures no workload", cfg.Fig, cfg.Workload))
}

// newPoint wraps the run cfg describes as a cacheable sweep point. Its
// Run reads nothing but cfg, the value the cache key hashes: a scenario
// of Fig. 1, the exact aggregation of Fig. 4, the emit→replay round trip
// of the trace figure, or one traced simulation assembled by
// iobehind.NewSim.
func newPoint(key string, cfg pointConfig) runner.Point {
	p := runner.Point{Key: key, Config: cfg}
	switch {
	case cfg.Cluster != nil:
		p.New = func() any { return new(cluster.Result) }
		p.Run = func(context.Context) (any, error) { return cluster.Run(*cfg.Cluster) }
	case cfg.Phases != nil:
		p.New = func() any { return new(fig04Payload) }
		p.Run = func(context.Context) (any, error) { return &fig04Payload{Phases: cfg.Phases}, nil }
	case cfg.Fig == "trace":
		p.New = func() any { return new(TracePointResult) }
		p.Run = func(context.Context) (any, error) { return traceRoundTrip(cfg) }
	default:
		p.New = func() any { return new(tmio.Report) }
		p.Run = func(context.Context) (any, error) {
			sim := iobehind.NewSim(cfg.Options)
			return sim.Run(cfg.main(sim.IO))
		}
	}
	return p
}

// reportAt extracts point i's report from the sweep results.
func reportAt(results []runner.Result, i int) (*tmio.Report, error) {
	if err := results[i].Err; err != nil {
		return nil, err
	}
	rep, ok := results[i].Value.(*tmio.Report)
	if !ok {
		return nil, fmt.Errorf("point %s: unexpected result type %T", results[i].Key, results[i].Value)
	}
	return rep, nil
}
