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

	"iobehind/internal/adio"
	"iobehind/internal/cluster"
	"iobehind/internal/des"
	"iobehind/internal/faults"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
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

// stormAgent returns the calibrated I/O-agent configuration used by the
// paper-shape runs: server queuing that makes burst operations visible
// (≈3% exploit for unthrottled runs at 9216 ranks) and the rare scheduling
// hiccups of unpaced I/O threads that slow the unthrottled runs at scale
// (the ≈11.6% effect of Fig. 10). See DESIGN.md for the calibration.
func stormAgent() adio.Config {
	return adio.Config{
		HiccupProb:          6e-4,
		HiccupMean:          150 * des.Millisecond,
		QueueLatencyPerFlow: 10 * des.Microsecond,
	}
}

// stack is one assembled simulation.
type stack struct {
	engine   *des.Engine
	world    *mpi.World
	fs       *pfs.PFS
	sys      *mpiio.System
	tracer   *tmio.Tracer
	injector *faults.Injector
}

// spec describes one traced run.
type spec struct {
	ranks    int
	seed     int64
	strategy tmio.StrategyConfig
	agent    adio.Config
	tracer   tmio.Config
	fsCfg    *pfs.Config
	faults   *faults.Config
}

// build assembles the stack for a spec.
func build(sp spec) *stack {
	seed := sp.seed
	if seed == 0 {
		seed = 1
	}
	e := des.NewEngine(seed)
	w := mpi.NewWorld(e, mpi.Config{Size: sp.ranks})
	fsCfg := pfs.LichtenbergConfig()
	if sp.fsCfg != nil {
		fsCfg = *sp.fsCfg
	}
	fs := pfs.New(e, fsCfg)
	sys := mpiio.NewSystem(w, fs, sp.agent)
	tcfg := sp.tracer
	tcfg.Strategy = sp.strategy
	var inj *faults.Injector
	if sp.faults != nil && !sp.faults.Empty() {
		inj = faults.New(e, fs, *sp.faults)
		sys.SetFaults(inj)
		tcfg.FaultOracle = inj.Overlaps
	}
	tr := tmio.Attach(sys, tcfg)
	return &stack{engine: e, world: w, fs: fs, sys: sys, tracer: tr, injector: inj}
}

// execute runs main on the stack's world and returns the report.
func (s *stack) execute(main func(*mpi.Rank)) (*tmio.Report, error) {
	if err := s.world.Run(main); err != nil {
		return nil, err
	}
	return s.tracer.Report(), nil
}

// Renderer is any experiment result that can print itself.
type Renderer interface{ Render() string }

// Experiment is one figure's sweep decomposed into independent runner
// points, plus the assembly that turns the point results — delivered in
// point order — back into the figure's renderable result.
type Experiment struct {
	// Fig is the canonical figure id; figures sharing one experiment
	// ("2" with "1", "6" with "5") share the id of the lower figure.
	Fig string
	// Seed is the non-default scenario seed the experiment was built
	// with (only the "faults" figure uses one; 0 elsewhere). It rides
	// into PointRefs so a remote worker re-enumerates the same sweep.
	Seed     int64
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

// pointConfig is the canonical, hashable identity of one sweep point:
// everything that determines the point's result. It is JSON-encoded into
// the cache key, so any change here (or to the structs it embeds)
// invalidates exactly the affected points.
type pointConfig struct {
	Fig      string
	Scale    string
	Workload string
	Ranks    int   `json:",omitempty"`
	Seed     int64 `json:",omitempty"`
	Strategy tmio.StrategyConfig
	Agent    adio.Config
	Tracer   tmio.Config
	FS       *pfs.Config             `json:",omitempty"`
	Faults   *faults.Config          `json:",omitempty"`
	Hacc     *workloads.HaccConfig   `json:",omitempty"`
	Wacomm   *workloads.WacommConfig `json:",omitempty"`
	Phased   *workloads.PhasedConfig `json:",omitempty"`
	Ior      *workloads.IorConfig    `json:",omitempty"`
	Cluster  *cluster.Config         `json:",omitempty"`
	Phases   []region.Phase          `json:",omitempty"` // Fig. 4's exact inputs
	// TraceSHA is the SHA-256 of a replayed trace file's raw bytes: the
	// trace *content* is the point's input, so any byte change must miss.
	TraceSHA string `json:",omitempty"`
}

// config derives the hashable point identity from a spec.
func (sp spec) config(fig string, scale Scale, workload string) pointConfig {
	return pointConfig{
		Fig:      fig,
		Scale:    scale.String(),
		Workload: workload,
		Ranks:    sp.ranks,
		Seed:     sp.seed,
		Strategy: sp.strategy,
		Agent:    sp.agent,
		Tracer:   sp.tracer,
		FS:       sp.fsCfg,
		Faults:   sp.faults,
	}
}

// simPoint wraps one traced simulation as a cacheable sweep point:
// build the stack, run mainOf's per-rank main, return the report.
func simPoint(key string, cfg pointConfig, sp spec, mainOf func(*mpiio.System) func(*mpi.Rank)) runner.Point {
	return runner.Point{
		Key:    key,
		Config: cfg,
		New:    func() any { return new(tmio.Report) },
		Run: func(context.Context) (any, error) {
			st := build(sp)
			return st.execute(mainOf(st.sys))
		},
	}
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
