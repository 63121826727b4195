package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
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

// traceWorkload is one dogfood case: a named workload plus the stack
// configuration it is traced and replayed under.
type traceWorkload struct {
	name     string
	ranks    int
	rpn      int
	strategy tmio.StrategyConfig
	fs       pfs.Config
	phased   *workloads.PhasedConfig
	hacc     *workloads.HaccConfig
	wacomm   *workloads.WacommConfig
	ior      *workloads.IorConfig
}

func (wl traceWorkload) main(sys *mpiio.System) func(*mpi.Rank) {
	switch {
	case wl.phased != nil:
		return workloads.PhasedMain(sys, *wl.phased)
	case wl.hacc != nil:
		return workloads.HaccMain(sys, *wl.hacc)
	case wl.wacomm != nil:
		return workloads.WacommMain(sys, *wl.wacomm)
	case wl.ior != nil:
		return workloads.IorMain(sys, *wl.ior)
	}
	panic("experiments: traceWorkload with no workload config")
}

// traceWorkloads enumerates the dogfood cases. The file system is modest
// and noise-free and the agent config is zero: the replay identity needs
// an I/O path without random draws (application-side randomness — jitter,
// failure schedules — is fine, it is frozen into the trace).
func traceWorkloads(scale Scale) []traceWorkload {
	fs := pfs.Config{WriteCapacity: 2e9, ReadCapacity: 2e9}
	adaptive := tmio.StrategyConfig{Strategy: tmio.Adaptive}
	direct := tmio.StrategyConfig{Strategy: tmio.Direct}
	phases, loops, iters := 4, 3, 3
	ranks := 4
	if scale == Paper {
		phases, loops, iters = 10, 6, 8
		ranks = 8
	}
	return []traceWorkload{
		{name: "phased", ranks: ranks, rpn: 2, strategy: adaptive, fs: fs,
			phased: &workloads.PhasedConfig{
				Phases: phases, BytesPerPhase: 16 << 20,
				Compute: 50 * des.Millisecond, JitterFraction: 0.05,
			}},
		{name: "hacc", ranks: 2, rpn: 2, strategy: direct, fs: fs,
			hacc: &workloads.HaccConfig{
				Loops: loops, ParticlesPerRank: 200_000,
				FixedPhase: 40 * des.Millisecond,
			}},
		{name: "wacomm", ranks: ranks, rpn: 2, strategy: direct, fs: fs,
			wacomm: &workloads.WacommConfig{
				Particles: 100_000, Iterations: iters, ReadEvery: 2,
			}},
		{name: "ior", ranks: ranks, rpn: 2, strategy: adaptive, fs: fs,
			ior: &workloads.IorConfig{
				Segments: 2, BlockSize: 16 << 20, TransferSize: 8 << 20,
				Async: true, ComputeBetween: 20 * des.Millisecond,
			}},
	}
}

// emitWorkloadTrace runs the workload with the emitter composed in front
// of the charging tracer (see trace.NewEmitter on the ordering) and
// returns the trace bytes plus the rendered report.
func emitWorkloadTrace(wl traceWorkload) (traceBytes, reportBytes []byte, rep *tmio.Report, err error) {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: wl.ranks, RanksPerNode: wl.rpn})
	fs := pfs.New(e, wl.fs)
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	em := trace.NewEmitter(sys, wl.name)
	tr := tmio.Attach(sys, tmio.Config{Strategy: wl.strategy})
	sys.SetInterceptor(mpiio.Tee(em, tr))
	if err := w.Run(wl.main(sys)); err != nil {
		return nil, nil, nil, err
	}
	rep = tr.Report()
	var repBuf, trBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		return nil, nil, nil, err
	}
	if err := em.Encode(&trBuf); err != nil {
		return nil, nil, nil, err
	}
	return trBuf.Bytes(), repBuf.Bytes(), rep, nil
}

// replayParsedTrace replays a parsed trace on a stack configured like wl's
// emit run (tracer only, no emitter) and returns the rendered report.
func replayParsedTrace(parsed *trace.Trace, wl traceWorkload) ([]byte, *tmio.Report, error) {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: parsed.Ranks, RanksPerNode: wl.rpn})
	fs := pfs.New(e, wl.fs)
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := tmio.Attach(sys, tmio.Config{Strategy: wl.strategy})
	if err := w.Run(trace.ReplayMain(sys, parsed)); err != nil {
		return nil, nil, err
	}
	rep := tr.Report()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), rep, nil
}

// EmitBuiltinTrace runs the named built-in workload ("phased", "hacc",
// "wacomm", "ior") at the given scale and returns its trace file bytes —
// the implementation behind iosweep's -emit-trace flag.
func EmitBuiltinTrace(workload string, scale Scale) ([]byte, error) {
	for _, wl := range traceWorkloads(scale) {
		if wl.name == workload {
			traceBytes, _, _, err := emitWorkloadTrace(wl)
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
	wls := traceWorkloads(scale)
	points := make([]runner.Point, 0, len(wls))
	for _, wl := range wls {
		wl := wl
		pcfg := pointConfig{
			Fig:      "trace",
			Scale:    scale.String(),
			Workload: wl.name,
			Ranks:    wl.ranks,
			Strategy: wl.strategy,
			Tracer:   tmio.Config{Strategy: wl.strategy},
			FS:       &wl.fs,
			Phased:   wl.phased,
			Hacc:     wl.hacc,
			Wacomm:   wl.wacomm,
			Ior:      wl.ior,
		}
		points = append(points, runner.Point{
			Key:    fmt.Sprintf("figtrace/%s/%s", scale.String(), wl.name),
			Config: pcfg,
			New:    func() any { return new(TracePointResult) },
			Run: func(context.Context) (any, error) {
				traceBytes, reportBytes, rep, err := emitWorkloadTrace(wl)
				if err != nil {
					return nil, fmt.Errorf("figtrace/%s: emit: %w", wl.name, err)
				}
				parsed, err := trace.Parse(bytes.NewReader(traceBytes))
				if err != nil {
					return nil, fmt.Errorf("figtrace/%s: parse own trace: %w", wl.name, err)
				}
				replayed, _, err := replayParsedTrace(parsed, wl)
				if err != nil {
					return nil, fmt.Errorf("figtrace/%s: replay: %w", wl.name, err)
				}
				if !bytes.Equal(reportBytes, replayed) {
					return nil, fmt.Errorf("figtrace/%s: replayed report diverged from original", wl.name)
				}
				sum := sha256.Sum256(traceBytes)
				return &TracePointResult{
					Workload:   wl.name,
					Ranks:      wl.ranks,
					Ops:        parsed.Ops(),
					TraceBytes: len(traceBytes),
					TraceSHA:   hex.EncodeToString(sum[:]),
					Identical:  true,
					Runtime:    rep.Runtime,
					RequiredBW: rep.RequiredBandwidth,
				}, nil
			},
		})
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
		Ranks:    parsed.Ranks,
		TraceSHA: hex.EncodeToString(sum[:]),
	}
	return &Experiment{
		Fig: "trace-replay",
		Points: []runner.Point{{
			Key:    fmt.Sprintf("trace-replay/%s/%s", scale.String(), name),
			Config: pcfg,
			New:    func() any { return new(tmio.Report) },
			Run: func(context.Context) (any, error) {
				e := des.NewEngine(1)
				w := mpi.NewWorld(e, mpi.Config{Size: parsed.Ranks, RanksPerNode: parsed.RanksPerNode})
				fs := pfs.New(e, pfs.LichtenbergConfig())
				sys := mpiio.NewSystem(w, fs, adio.Config{})
				tr := tmio.Attach(sys, tmio.Config{})
				if err := w.Run(trace.ReplayMain(sys, parsed)); err != nil {
					return nil, err
				}
				return tr.Report(), nil
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
