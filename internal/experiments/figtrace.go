package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"iobehind"
	"iobehind/internal/des"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/report"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
	"iobehind/internal/trace"
	"iobehind/internal/workloads"
)

// The trace experiment ("trace" in FigOrder) is the dogfood closure of the
// trace subsystem: every built-in workload is run once with the trace
// emitter attached, its trace is replayed on an identically configured
// stack, and the two rendered reports must match byte for byte. It is the
// same closure property PR 2 established for online/offline equality,
// extended to the trace path — if it holds, a trace captures everything
// the bandwidth analysis needs, so replaying *external* traces is on the
// same footing as running the hand-coded models.

// traceWorkloads enumerates the dogfood cases, one point config each;
// the workload name tags the trace. The file system is modest and
// noise-free and the agent config is zero: the replay identity needs an
// I/O path without random draws (application-side randomness — jitter,
// failure schedules — is fine, it is frozen into the trace).
func traceWorkloads(scale Scale) []pointConfig {
	fs := pfs.Config{WriteCapacity: 2e9, ReadCapacity: 2e9}
	adaptive := tmio.StrategyConfig{Strategy: tmio.Adaptive}
	direct := tmio.StrategyConfig{Strategy: tmio.Direct}
	phases, loops, iters := 4, 3, 3
	ranks := 4
	if scale == Paper {
		phases, loops, iters = 10, 6, 8
		ranks = 8
	}
	run := func(name string, n int, strat tmio.StrategyConfig) pointConfig {
		return pointConfig{
			Fig: "trace", Scale: scale.String(), Workload: name,
			Options: iobehind.Options{Ranks: n, RanksPerNode: 2, Strategy: strat, FS: &fs},
		}
	}
	phased := run("phased", ranks, adaptive)
	phased.Phased = &workloads.PhasedConfig{
		Phases: phases, BytesPerPhase: 16 << 20,
		Compute: 50 * des.Millisecond, JitterFraction: 0.05,
	}
	hacc := run("hacc", 2, direct)
	hacc.Hacc = &workloads.HaccConfig{
		Loops: loops, ParticlesPerRank: 200_000,
		FixedPhase: 40 * des.Millisecond,
	}
	wacomm := run("wacomm", ranks, direct)
	wacomm.Wacomm = &workloads.WacommConfig{
		Particles: 100_000, Iterations: iters, ReadEvery: 2,
	}
	ior := run("ior", ranks, adaptive)
	ior.Ior = &workloads.IorConfig{
		Segments: 2, BlockSize: 16 << 20, TransferSize: 8 << 20,
		Async: true, ComputeBetween: 20 * des.Millisecond,
	}
	return []pointConfig{phased, hacc, wacomm, ior}
}

// emitWorkloadTrace runs cfg's workload with the emitter composed in
// front of the charging tracer and returns the trace bytes plus the
// rendered report. The emitter must exist before the tracer attaches,
// so that its finalize hook fires first (see trace.NewEmitter).
func emitWorkloadTrace(cfg pointConfig) (traceBytes, reportBytes []byte, rep *tmio.Report, err error) {
	opts := cfg.Options
	opts.NoTracer = true
	sim := iobehind.NewSim(opts)
	em := trace.NewEmitter(sim.IO, cfg.Workload)
	sim.Tracer = tmio.Attach(sim.IO, cfg.Strategy, cfg.Tracer)
	sim.IO.SetInterceptor(mpiio.Tee(em, sim.Tracer))
	if rep, err = sim.Run(cfg.main(sim.IO)); err != nil {
		return nil, nil, nil, err
	}
	var repBuf, trBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		return nil, nil, nil, err
	}
	if err := em.Encode(&trBuf); err != nil {
		return nil, nil, nil, err
	}
	return trBuf.Bytes(), repBuf.Bytes(), rep, nil
}

// EmitBuiltinTrace runs the named built-in workload ("phased", "hacc",
// "wacomm", "ior") at the given scale and returns its trace file bytes —
// the implementation behind iosweep's -emit-trace flag.
func EmitBuiltinTrace(workload string, scale Scale) ([]byte, error) {
	for _, cfg := range traceWorkloads(scale) {
		if cfg.Workload == workload {
			traceBytes, _, _, err := emitWorkloadTrace(cfg)
			return traceBytes, err
		}
	}
	return nil, fmt.Errorf("experiments: unknown trace workload %q (want phased, hacc, wacomm, or ior)", workload)
}

// TracePointResult is one dogfood point's outcome.
type TracePointResult struct {
	Workload   string
	Ranks      int
	Ops        int
	TraceBytes int
	TraceSHA   string
	Identical  bool
	Runtime    des.Duration
	RequiredBW float64
}

// FigTraceResult is the assembled trace experiment.
type FigTraceResult struct {
	Scale  Scale
	Points []TracePointResult
}

// FigTraceExperiment enumerates one emit→replay→compare point per
// built-in workload. A point fails (returns an error, failing the sweep)
// when the replayed report is not byte-identical to the original — the
// trace subsystem's core invariant is enforced on every run, not only in
// tests.
func FigTraceExperiment(scale Scale) *Experiment {
	var points []runner.Point
	for _, cfg := range traceWorkloads(scale) {
		points = append(points, newPoint(fmt.Sprintf("figtrace/%s/%s", scale.String(), cfg.Workload), cfg))
	}
	return &Experiment{
		Fig:    "trace",
		Points: points,
		Assemble: func(results []runner.Result) (Renderer, error) {
			out := &FigTraceResult{Scale: scale}
			for i := range results {
				if err := results[i].Err; err != nil {
					return nil, err
				}
				pt, ok := results[i].Value.(*TracePointResult)
				if !ok {
					return nil, fmt.Errorf("figtrace: point %s: unexpected result type %T",
						results[i].Key, results[i].Value)
				}
				out.Points = append(out.Points, *pt)
			}
			return out, nil
		},
	}
}

// traceRoundTrip is one trace-figure point: emit cfg's workload, parse
// its trace, replay it on a stack built from the same options, and
// require the two reports to match byte for byte.
func traceRoundTrip(cfg pointConfig) (*TracePointResult, error) {
	name := cfg.Workload
	traceBytes, reportBytes, rep, err := emitWorkloadTrace(cfg)
	if err != nil {
		return nil, fmt.Errorf("figtrace/%s: emit: %w", name, err)
	}
	parsed, err := trace.Parse(bytes.NewReader(traceBytes))
	if err != nil {
		return nil, fmt.Errorf("figtrace/%s: parse own trace: %w", name, err)
	}
	sim := iobehind.NewSim(cfg.Options)
	replayed, err := sim.Run(trace.ReplayMain(sim.IO, parsed))
	if err != nil {
		return nil, fmt.Errorf("figtrace/%s: replay: %w", name, err)
	}
	var buf bytes.Buffer
	if err := replayed.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("figtrace/%s: replay: %w", name, err)
	}
	if !bytes.Equal(reportBytes, buf.Bytes()) {
		return nil, fmt.Errorf("figtrace/%s: replayed report diverged from original", name)
	}
	sum := sha256.Sum256(traceBytes)
	return &TracePointResult{
		Workload:   name,
		Ranks:      cfg.Ranks,
		Ops:        parsed.Ops(),
		TraceBytes: len(traceBytes),
		TraceSHA:   hex.EncodeToString(sum[:]),
		Identical:  true,
		Runtime:    rep.Runtime,
		RequiredBW: rep.RequiredBandwidth,
	}, nil
}

// Render prints one row per workload: the emit→replay round trip.
func (r *FigTraceResult) Render() string {
	t := report.NewTable(
		"Trace — emit each built-in workload, replay its trace, compare reports",
		"workload", "ranks", "ops", "trace size", "sha256", "round trip", "runtime", "B required")
	for _, p := range r.Points {
		rt := "byte-identical"
		if !p.Identical {
			rt = "DIVERGED"
		}
		t.AddRow(p.Workload,
			fmt.Sprintf("%d", p.Ranks),
			fmt.Sprintf("%d", p.Ops),
			fmt.Sprintf("%d B", p.TraceBytes),
			p.TraceSHA[:12],
			rt,
			report.Seconds(p.Runtime),
			report.Rate(p.RequiredBW))
	}
	return t.Render()
}

// TraceReplayResult is a replayed external trace: the parsed header plus
// the report the simulated cluster produced for it.
type TraceReplayResult struct {
	Name    string
	App     string
	Ranks   int
	Ops     int
	Skipped int
	Report  *tmio.Report
}

// TraceReplayExperiment wraps one trace file as a single-point experiment:
// parse it, replay it on the simulated cluster, and report the measured
// bandwidth requirement. The point's cache identity includes the SHA-256
// of the raw trace bytes, so a cached result is served only for the exact
// same trace content — any byte change re-runs the point.
func TraceReplayExperiment(name string, raw []byte, scale Scale) (*Experiment, error) {
	parsed, err := trace.Parse(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	pcfg := pointConfig{
		Fig:      "trace-replay",
		Scale:    scale.String(),
		Workload: "trace:" + name,
		Options:  iobehind.Options{Ranks: parsed.Ranks, RanksPerNode: parsed.RanksPerNode},
		TraceSHA: hex.EncodeToString(sum[:]),
	}
	return &Experiment{
		Fig: "trace-replay",
		Points: []runner.Point{{
			Key:    fmt.Sprintf("trace-replay/%s/%s", scale.String(), name),
			Config: pcfg,
			New:    func() any { return new(tmio.Report) },
			Run: func(context.Context) (any, error) {
				sim := iobehind.NewSim(pcfg.Options)
				return sim.Run(trace.ReplayMain(sim.IO, parsed))
			},
		}},
		Assemble: func(results []runner.Result) (Renderer, error) {
			rep, err := reportAt(results, 0)
			if err != nil {
				return nil, fmt.Errorf("trace-replay %s: %w", name, err)
			}
			return &TraceReplayResult{
				Name: name, App: parsed.App,
				Ranks: parsed.Ranks, Ops: parsed.Ops(), Skipped: parsed.Skipped,
				Report: rep,
			}, nil
		},
	}, nil
}

// Render prints the replayed trace's bandwidth analysis.
func (r *TraceReplayResult) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Trace replay — %s (app %q, %d ranks, %d ops, %d skipped)",
			r.Name, r.App, r.Ranks, r.Ops, r.Skipped),
		"runtime", "B required", "sync ops", "async ops", "bytes written", "bytes read")
	t.AddRow(
		report.Seconds(r.Report.Runtime),
		report.Rate(r.Report.RequiredBandwidth),
		fmt.Sprintf("%d", r.Report.SyncOps),
		fmt.Sprintf("%d", r.Report.AsyncOps),
		report.Bytes(r.Report.TotalBytes[pfs.Write]),
		report.Bytes(r.Report.TotalBytes[pfs.Read]))
	return t.Render()
}
