// Package iobehind reproduces "I/O Behind the Scenes: Bandwidth
// Requirements of HPC Applications With Asynchronous I/O" (Tarraf et al.,
// IEEE CLUSTER 2024) as a deterministic virtual-time simulation stack.
//
// The package is the public facade: it assembles the discrete-event
// engine, the parallel-file-system model, the MPI-like runtime, the
// MPI-IO/ADIO layer with the bandwidth-limiting I/O agents, and the TMIO
// tracer, and runs workloads against them.
//
// Minimal use — one traced simulation:
//
//	sim := iobehind.NewSim(iobehind.Options{
//	    Ranks:    96,
//	    Strategy: iobehind.StrategyConfig{Strategy: iobehind.UpOnly, Tol: 1.1},
//	})
//	report, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{}))
//
// NewSim is the one place the stack is assembled: the experiment suite
// builds every traced run of every figure through it.
//
// The returned Report carries the paper's metrics: the rank-level required
// bandwidths B_ij and throughputs T_ij, the application-level step series
// B, B_L and T (Eq. 3), the time-distribution breakdown of Figs. 6/7/11,
// and the tracing overhead split into its peri- and post-runtime parts.
//
// Because every simulation is a pure function of its seed and
// configuration, independent runs parallelize trivially. The experiment
// suite decomposes each paper figure into independent sweep points and
// fans them across a worker pool with disk-cached results
// (internal/runner); rendered output is byte-identical to the serial
// path. The suite runs from the command line:
//
//	go run ./cmd/iosweep -figs 1,5,8 -scale quick -j 8 -cache .iosweep-cache
//	go run ./cmd/iosweep -figs all -j 1     # the serial reference path
//
// See docs/ARCHITECTURE.md for the package map and docs/TUTORIAL.md for a
// walk-through.
package iobehind

import (
	"iobehind/internal/adio"
	"iobehind/internal/cluster"
	"iobehind/internal/des"
	"iobehind/internal/faults"
	"iobehind/internal/ftio"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// Re-exported types: the stable public surface over the internal packages.
type (
	// Report is a traced run's aggregated result.
	Report = tmio.Report
	// Distribution is the percentage time breakdown of a report.
	Distribution = tmio.Distribution
	// Strategy selects the bandwidth-limiting strategy.
	Strategy = tmio.Strategy
	// StrategyConfig is a strategy plus its tolerances.
	StrategyConfig = tmio.StrategyConfig
	// TracerConfig configures the TMIO tracer.
	TracerConfig = tmio.Config
	// Tracer is the attached TMIO instance.
	Tracer = tmio.Tracer
	// HaccConfig parameterizes the modified HACC-IO benchmark.
	HaccConfig = workloads.HaccConfig
	// WacommConfig parameterizes the WaComM++ model.
	WacommConfig = workloads.WacommConfig
	// PhasedConfig parameterizes the generic checkpointing kernel.
	PhasedConfig = workloads.PhasedConfig
	// IorConfig parameterizes the IOR-style benchmark.
	IorConfig = workloads.IorConfig
	// CheckpointConfig parameterizes the checkpoint/restart pattern with
	// failure injection.
	CheckpointConfig = workloads.CheckpointConfig
	// FSConfig describes the parallel file system.
	FSConfig = pfs.Config
	// NoiseConfig perturbs the file-system capacity over time.
	NoiseConfig = pfs.NoiseConfig
	// BurstBufferConfig interposes a node-local buffer tier for writes.
	BurstBufferConfig = pfs.BurstBufferConfig
	// AgentConfig parameterizes the per-rank I/O agents (sub-request
	// size, scheduling hiccups, storm latencies).
	AgentConfig = adio.Config
	// FaultConfig is a fault-injection scenario: scripted and seeded-
	// random windows of degraded capacity, stalls and transient errors.
	FaultConfig = faults.Config
	// Rank is one MPI process; workload mains receive it.
	Rank = mpi.Rank
	// Duration is a span of virtual time (nanoseconds).
	Duration = des.Duration
	// Time is an instant of virtual time.
	Time = des.Time
)

// Limiting strategies.
const (
	None     = tmio.None
	Direct   = tmio.Direct
	UpOnly   = tmio.UpOnly
	Adaptive = tmio.Adaptive
	// Frequent is the most-frequently-used-table strategy (the paper's
	// proposed future improvement).
	Frequent = tmio.Frequent
)

// Convenient virtual-time units.
const (
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// Workload mains.
var (
	// HaccMain builds the modified HACC-IO per-rank main.
	HaccMain = workloads.HaccMain
	// WacommMain builds the WaComM++ per-rank main.
	WacommMain = workloads.WacommMain
	// PhasedMain builds the generic checkpointing kernel main.
	PhasedMain = workloads.PhasedMain
	// IorMain builds the IOR-style benchmark main.
	IorMain = workloads.IorMain
	// CheckpointMain builds the checkpoint/restart main.
	CheckpointMain = workloads.CheckpointMain
	// YoungInterval computes Young's optimal checkpoint interval.
	YoungInterval = workloads.YoungInterval
)

// Options assembles a simulation.
type Options struct {
	// Ranks is the MPI world size. Must be >= 1.
	Ranks int
	// Seed drives all simulation randomness. Defaults to 1.
	Seed int64
	// FS defaults to the Lichtenberg configuration (106 GB/s writes,
	// 120 GB/s reads).
	FS *FSConfig
	// Agent configures the I/O agents.
	Agent AgentConfig
	// RanksPerNode defaults to 96 (Lichtenberg nodes).
	RanksPerNode int
	// Strategy drives the limiter; the zero value traces without limiting.
	Strategy StrategyConfig
	// Tracer carries the remaining TMIO options.
	Tracer TracerConfig
	// NoTracer skips attaching TMIO entirely (raw runs).
	NoTracer bool
	// Faults, when set, injects the scenario's windows into the file
	// system and the I/O agents, and lets the tracer quarantine the
	// phases they overlap.
	Faults *FaultConfig
}

// Sim is an assembled simulation stack.
type Sim struct {
	Engine *des.Engine
	World  *mpi.World
	FS     *pfs.PFS
	IO     *mpiio.System
	Tracer *tmio.Tracer
}

// NewSim assembles a simulation from opts: the engine, the MPI world,
// the file system, the MPI-IO system with its I/O agents, the fault
// injector when opts.Faults is set, and the tracer unless opts.NoTracer.
func NewSim(opts Options) *Sim {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	e := des.NewEngine(seed)
	w := mpi.NewWorld(e, mpi.Config{Size: opts.Ranks, RanksPerNode: opts.RanksPerNode})
	fsCfg := pfs.LichtenbergConfig()
	if opts.FS != nil {
		fsCfg = *opts.FS
	}
	fs := pfs.New(e, fsCfg)
	sys := mpiio.NewSystem(w, fs, opts.Agent)
	s := &Sim{Engine: e, World: w, FS: fs, IO: sys}
	tcfg := opts.Tracer
	if opts.Faults != nil && !opts.Faults.Empty() {
		inj := faults.New(e, fs, *opts.Faults)
		sys.SetFaults(inj)
		tcfg.FaultOracle = inj.Overlaps
	}
	if !opts.NoTracer {
		s.Tracer = tmio.Attach(sys, opts.Strategy, tcfg)
	}
	return s
}

// Run launches main on every rank, drives the simulation to completion,
// and returns the tracer's report (nil with NoTracer).
func (s *Sim) Run(main func(*Rank)) (*Report, error) {
	if err := s.World.Run(main); err != nil {
		return nil, err
	}
	if s.Tracer == nil {
		return nil, nil
	}
	return s.Tracer.Report(), nil
}

// Cluster-level simulation (the paper's motivating Figs. 1 and 2): several
// jobs share a cluster and its file system; asynchronous jobs can be
// limited to their required bandwidth during contention only.
type (
	// ClusterConfig describes a multi-job scenario.
	ClusterConfig = cluster.Config
	// ClusterResult is a scenario's outcome.
	ClusterResult = cluster.Result
	// JobSpec describes one batch job of a scenario.
	JobSpec = cluster.JobSpec
	// LimitPolicy selects whether asynchronous jobs are limited.
	LimitPolicy = cluster.LimitPolicy
)

// Cluster limit policies.
const (
	NoLimit               = cluster.NoLimit
	LimitDuringContention = cluster.LimitDuringContention
	// LimitPredictive caps async jobs ahead of forecast bursts (FTIO).
	LimitPredictive = cluster.LimitPredictive
	// LimitAlways keeps async jobs capped for their whole lifetime.
	LimitAlways = cluster.LimitAlways
)

// RunCluster executes a multi-job scenario.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// DefaultClusterScenario returns the paper's eight-job Fig. 1 setup.
func DefaultClusterScenario(policy LimitPolicy) ClusterConfig {
	return cluster.DefaultScenario(policy)
}

// PeriodDetection is the result of FTIO-style I/O period detection.
type PeriodDetection = ftio.Result

// DetectPeriod runs frequency-technique phase detection over a report's
// rank-level phases (e.g. report.TPhases): it returns the dominant I/O
// period, its confidence, and a predictor for the next burst — the
// TMIO+FTIO coupling described in the paper's related work.
func DetectPeriod(phases []RegionPhase, bins int) (*PeriodDetection, error) {
	return ftio.DetectPhases(phases, bins)
}

// RegionPhase is a rank-level phase of a report (the elements of
// Report.BPhases / TPhases / BLPhases).
type RegionPhase = region.Phase
