package trace

import (
	"bytes"
	"strings"
	"testing"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

func parseString(t *testing.T, s string) (*Trace, error) {
	t.Helper()
	return Parse(strings.NewReader(s))
}

func TestParseRejectsMalformedTraces(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "missing meta"},
		{"no meta first", `{"op":"barrier","rank":0,"t":1}`, "first record"},
		{"meta without ranks", `{"v":1,"op":"meta"}`, "ranks"},
		{"duplicate meta", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"meta\",\"ranks\":1}", "duplicate meta"},
		{"rank out of range", "{\"op\":\"meta\",\"ranks\":2}\n{\"op\":\"barrier\",\"rank\":2,\"t\":1}", "outside"},
		{"time backwards", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"barrier\",\"rank\":0,\"t\":5}\n{\"op\":\"barrier\",\"rank\":0,\"t\":4}", "before previous"},
		{"te before t", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"write_at\",\"rank\":0,\"t\":5,\"te\":4,\"n\":1}", "te 4 before t 5"},
		{"wait unknown rid", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"wait\",\"rank\":0,\"t\":1,\"rid\":7}", "unknown"},
		{"double wait", "{\"op\":\"meta\",\"ranks\":1}\n" +
			`{"op":"iwrite_at","rank":0,"t":1,"n":1,"rid":1}` + "\n" +
			`{"op":"wait","rank":0,"t":2,"rid":1}` + "\n" +
			`{"op":"wait","rank":0,"t":3,"rid":1}`, "already-waited"},
		{"unwaited request", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"iread_at\",\"rank\":0,\"t\":1,\"n\":1,\"rid\":1}", "unwaited"},
		{"op after finalize", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"finalize\",\"rank\":0,\"t\":1}\n{\"op\":\"barrier\",\"rank\":0,\"t\":2}", "after finalize"},
		{"collective mismatch", "{\"op\":\"meta\",\"ranks\":2}\n" +
			`{"op":"barrier","rank":0,"t":1}` + "\n" +
			`{"op":"write_at_all","rank":1,"t":1,"n":1}`, "deadlock"},
		{"collective count mismatch", "{\"op\":\"meta\",\"ranks\":2}\n{\"op\":\"barrier\",\"rank\":0,\"t\":1}", "deadlock"},
		{"negative size", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"write_at\",\"rank\":0,\"t\":1,\"n\":-5}", "negative"},
		{"torn frame", "{\"op\":\"meta\",\"ranks\":1}\n{\"op\":\"barrier\",\"rank\":0,\"t\":1}{\"op\":\"barrier\",\"rank\":0,\"t\":2}", "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseString(t, tc.input)
			if err == nil {
				t.Fatalf("parse accepted malformed trace")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseToleratesUnknownOpsAndVersions(t *testing.T) {
	input := "{\"v\":99,\"op\":\"meta\",\"app\":\"ext\",\"ranks\":2,\"rpn\":2,\"clock\":\"wall\"}\n" +
		"\n" + // blank line
		`{"op":"open","rank":0,"t":10,"file":"a.dat","fid":1}` + "\n" +
		`{"op":"mmap","rank":0,"t":11,"n":4096}` + "\n" + // future op kind
		`{"op":"write_at","rank":0,"t":20,"te":30,"fid":1,"n":100}` + "\n" +
		`{"op":"finalize","rank":0,"t":40}` + "\n" +
		`{"op":"finalize","rank":1,"t":40}`
	tr, err := parseString(t, input)
	if err != nil {
		t.Fatal(err)
	}
	if tr.App != "ext" || tr.Version != 99 || tr.Ranks != 2 || tr.Clock != "wall" {
		t.Errorf("header = %+v", tr)
	}
	if tr.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", tr.Skipped)
	}
	if len(tr.PerRank[0]) != 3 || len(tr.PerRank[1]) != 1 {
		t.Errorf("per-rank ops: %d/%d, want 3/1", len(tr.PerRank[0]), len(tr.PerRank[1]))
	}
	if tr.Ops() != 4 {
		t.Errorf("Ops = %d, want 4", tr.Ops())
	}
}

// testFS returns a modest file system so the dogfood traces have phases
// with meaningful (> tmio's 1 ms minimum) required-bandwidth windows. No
// noise: the replay identity needs an I/O path free of random draws.
func testFS() *pfs.Config {
	return &pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
}

type emitRun struct {
	report   []byte // Report.WriteJSON output
	trace    []byte // the emitted trace file
	asyncOps int
	syncOps  int
}

// emitWorkload runs main with an emitter and a charging tracer attached
// (emitter first, so records carry pre-overhead call times) and returns
// the rendered report plus the trace.
func emitWorkload(t *testing.T, ranks, rpn int, strat tmio.StrategyConfig,
	mainOf func(*mpiio.System) func(*mpi.Rank)) emitRun {
	t.Helper()
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: ranks, RanksPerNode: rpn})
	fs := pfs.New(e, *testFS())
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	em := NewEmitter(sys, "dogfood")
	tr := tmio.Attach(sys, strat, tmio.Config{})
	sys.SetInterceptor(mpiio.Tee(em, tr))
	if err := w.Run(mainOf(sys)); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	var repBuf, trBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		t.Fatal(err)
	}
	if err := em.Encode(&trBuf); err != nil {
		t.Fatal(err)
	}
	return emitRun{
		report: repBuf.Bytes(), trace: trBuf.Bytes(),
		asyncOps: rep.AsyncOps, syncOps: rep.SyncOps,
	}
}

// replayTrace replays a trace on a fresh, identically configured stack
// (tracer only, no emitter) and returns the rendered report.
func replayTrace(t *testing.T, raw []byte, rpn int, strat tmio.StrategyConfig) []byte {
	t.Helper()
	parsed, err := Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: parsed.Ranks, RanksPerNode: rpn})
	fs := pfs.New(e, *testFS())
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := tmio.Attach(sys, strat, tmio.Config{})
	if err := w.Run(ReplayMain(sys, parsed)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEmitReplayByteIdentical is the headline dogfood invariant: for each
// built-in workload, replaying its own emitted trace on an identically
// configured stack reproduces the report byte for byte — the trace
// captures everything the bandwidth analysis needs.
func TestEmitReplayByteIdentical(t *testing.T) {
	adaptive := tmio.StrategyConfig{Strategy: tmio.Adaptive}
	direct := tmio.StrategyConfig{Strategy: tmio.Direct}
	none := tmio.StrategyConfig{}
	cases := []struct {
		name       string
		ranks, rpn int
		strat      tmio.StrategyConfig
		mainOf     func(*mpiio.System) func(*mpi.Rank)
		wantAsync  bool
	}{
		{"phased", 4, 2, adaptive, func(sys *mpiio.System) func(*mpi.Rank) {
			return workloads.PhasedMain(sys, workloads.PhasedConfig{
				Phases: 4, BytesPerPhase: 8 << 20,
				Compute: 50 * des.Millisecond, JitterFraction: 0.05,
			})
		}, true},
		{"hacc", 2, 2, direct, func(sys *mpiio.System) func(*mpi.Rank) {
			return workloads.HaccMain(sys, workloads.HaccConfig{
				Loops: 3, ParticlesPerRank: 200_000,
				FixedPhase: 40 * des.Millisecond,
			})
		}, true},
		{"wacomm", 4, 2, direct, func(sys *mpiio.System) func(*mpi.Rank) {
			return workloads.WacommMain(sys, workloads.WacommConfig{
				Particles: 100_000, Iterations: 3, ReadEvery: 2,
			})
		}, true},
		{"ior-collective", 4, 2, none, func(sys *mpiio.System) func(*mpi.Rank) {
			return workloads.IorMain(sys, workloads.IorConfig{
				Segments: 2, BlockSize: 8 << 20, TransferSize: 4 << 20,
				Collective: true, ReadBack: true,
			})
		}, false},
		{"ior-async", 2, 2, adaptive, func(sys *mpiio.System) func(*mpi.Rank) {
			return workloads.IorMain(sys, workloads.IorConfig{
				Segments: 2, BlockSize: 8 << 20, TransferSize: 4 << 20,
				Async: true, ComputeBetween: 20 * des.Millisecond,
			})
		}, true},
		{"checkpoint", 2, 2, direct, func(sys *mpiio.System) func(*mpi.Rank) {
			return workloads.CheckpointMain(sys, workloads.CheckpointConfig{
				ComputeTotal: 400 * des.Millisecond, Interval: 100 * des.Millisecond,
				CheckpointBytes: 8 << 20, Async: true,
				MTBF: 800 * des.Millisecond, RestartRead: true,
			})
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			emitted := emitWorkload(t, tc.ranks, tc.rpn, tc.strat, tc.mainOf)
			if tc.wantAsync && emitted.asyncOps == 0 {
				t.Fatalf("workload issued no async ops — dogfood case lost its point")
			}
			if emitted.asyncOps+emitted.syncOps == 0 {
				t.Fatalf("workload issued no I/O at all")
			}
			replayed := replayTrace(t, emitted.trace, tc.rpn, tc.strat)
			if !bytes.Equal(emitted.report, replayed) {
				t.Fatalf("replayed report differs from original\n--- original ---\n%s\n--- replayed ---\n%s",
					firstDiff(emitted.report, replayed), firstDiff(replayed, emitted.report))
			}
		})
	}
}

// firstDiff trims two byte slices to the region around their first
// difference, to keep failure output readable.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 100
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestReplayFourRankHandWrittenTrace replays a hand-written external-style
// trace — barriers included, which the emitter itself cannot capture — on
// a 4-rank world, and checks the replay honors absolute times, barrier
// synchronization, and submit/wait pairing. This is the -race exercise
// for the replayer (the race sweep runs this package).
func TestReplayFourRankHandWrittenTrace(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"v":1,"op":"meta","app":"hand","ranks":4,"rpn":2,"clock":"sim"}` + "\n")
	ms := int64(des.Millisecond)
	for rank := 0; rank < 4; rank++ {
		w := func(s string) { sb.WriteString(s + "\n") }
		w(`{"op":"open","rank":` + itoa(rank) + `,"t":0,"file":"ext.dat","fid":1}`)
		// Rank 0 starts late; the barrier drags everyone to its schedule.
		t0 := int64(rank) * ms
		w(`{"op":"iwrite_at","rank":` + itoa(rank) + `,"t":` + itoa64(t0) + `,"fid":1,"n":1000000,"rid":1}`)
		w(`{"op":"wait","rank":` + itoa(rank) + `,"t":` + itoa64(t0+10*ms) + `,"rid":1}`)
		w(`{"op":"barrier","rank":` + itoa(rank) + `,"t":` + itoa64(t0+11*ms) + `}`)
		w(`{"op":"write_at_all","rank":` + itoa(rank) + `,"t":` + itoa64(t0+12*ms) + `,"fid":1,"n":500000}`)
		w(`{"op":"finalize","rank":` + itoa(rank) + `,"t":` + itoa64(t0+20*ms) + `}`)
	}
	parsed, err := parseString(t, sb.String())
	if err != nil {
		t.Fatal(err)
	}

	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: 4, RanksPerNode: 2})
	fs := pfs.New(e, *testFS())
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := tmio.Attach(sys, tmio.StrategyConfig{}, tmio.Config{DisableOverhead: true})
	if err := w.Run(ReplayMain(sys, parsed)); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	if rep.AsyncOps != 4 {
		t.Errorf("AsyncOps = %d, want 4", rep.AsyncOps)
	}
	if rep.SyncOps != 4 {
		t.Errorf("SyncOps = %d, want 4 (one collective per rank)", rep.SyncOps)
	}
	// Rank 3's finalize is at 23 ms; the runtime must reach at least that.
	if rep.Runtime < 23*des.Millisecond {
		t.Errorf("Runtime = %v, want ≥ 23ms", rep.Runtime)
	}
}

func itoa(v int) string { return itoa64(int64(v)) }
func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestReplaySlowerSystemCollapsesGaps replays a phased trace against a
// file system ten times slower than the traced one: absolute times are
// unreachable, so the gaps collapse and the run simply takes longer —
// never deadlocks, never sleeps backwards.
func TestReplaySlowerSystemCollapsesGaps(t *testing.T) {
	strat := tmio.StrategyConfig{}
	emitted := emitWorkload(t, 2, 2, strat, func(sys *mpiio.System) func(*mpi.Rank) {
		return workloads.PhasedMain(sys, workloads.PhasedConfig{
			Phases: 3, BytesPerPhase: 16 << 20, Compute: 20 * des.Millisecond,
		})
	})
	parsed, err := Parse(bytes.NewReader(emitted.trace))
	if err != nil {
		t.Fatal(err)
	}
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: 2, RanksPerNode: 2})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 1e8, ReadCapacity: 1e8})
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := tmio.Attach(sys, tmio.StrategyConfig{}, tmio.Config{})
	if err := w.Run(ReplayMain(sys, parsed)); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	if rep.AsyncOps != 6 {
		t.Errorf("AsyncOps = %d, want 6", rep.AsyncOps)
	}
	if rep.Runtime <= 0 {
		t.Errorf("Runtime = %v, want > 0", rep.Runtime)
	}
}

// TestEmittedTraceParses pins the emitter's output against its own
// parser: meta first, ops grouped per rank, no skips.
func TestEmittedTraceParses(t *testing.T) {
	emitted := emitWorkload(t, 2, 2, tmio.StrategyConfig{}, func(sys *mpiio.System) func(*mpi.Rank) {
		return workloads.PhasedMain(sys, workloads.PhasedConfig{
			Phases: 2, BytesPerPhase: 4 << 20, Compute: 10 * des.Millisecond,
		})
	})
	parsed, err := Parse(bytes.NewReader(emitted.trace))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Ranks != 2 || parsed.App != "dogfood" || parsed.Clock != "sim" || parsed.Version != Version {
		t.Errorf("header = %+v", parsed)
	}
	if parsed.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0", parsed.Skipped)
	}
	for rank, ops := range parsed.PerRank {
		if len(ops) == 0 {
			t.Fatalf("rank %d has no ops", rank)
		}
		if ops[0].Op != OpOpen {
			t.Errorf("rank %d first op = %s, want open", rank, ops[0].Op)
		}
		last := ops[len(ops)-1]
		if last.Op != OpFinalize {
			t.Errorf("rank %d last op = %s, want finalize", rank, last.Op)
		}
	}
}
