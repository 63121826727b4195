// Integration tests exercising several subsystems together, end to end.
package iobehind_test

import (
	"bytes"
	"math"
	"testing"

	"iobehind"
	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/ftio"
	"iobehind/internal/gateway"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// TestEndToEndKitchenSink runs one application with nearly every feature
// enabled at once: per-class limits with the frequent strategy, storm
// latencies, hiccups, overhead model, streaming sink — and checks they
// compose, including that the gateway's online sweep over the streamed
// records agrees with the offline report.
func TestEndToEndKitchenSink(t *testing.T) {
	e := des.NewEngine(4)
	w := mpi.NewWorld(e, mpi.Config{Size: 16, RanksPerNode: 8})
	fs := pfs.New(e, pfs.Config{
		WriteCapacity: 10e9,
		ReadCapacity:  10e9,
	})
	sys := mpiio.NewSystem(w, fs, adio.Config{
		HiccupProb:           1e-3,
		HiccupMean:           50 * des.Millisecond,
		QueueLatencyPerFlow:  20 * des.Microsecond,
		SubmitLatencyPerFlow: 20 * des.Microsecond,
	})
	tr := tmio.Attach(sys, tmio.StrategyConfig{Strategy: tmio.Frequent, Tol: 1.2}, tmio.Config{
		PerClassLimits: true,
	})
	sink := &tmio.CollectSink{}
	tr.SetSink(sink)

	if err := w.Run(workloads.HaccMain(sys, workloads.HaccConfig{
		Loops:            4,
		ParticlesPerRank: 1_000_000,
		FixedPhase:       300 * des.Millisecond,
	})); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()

	if rep.RequiredBandwidth <= 0 {
		t.Fatal("no required bandwidth")
	}
	if sink.Len() == 0 {
		t.Fatal("sink empty")
	}
	// The online Eq. 3 sweep the gateway serves, fed the streamed records.
	online := region.NewIncrementalSweep("B")
	for _, rec := range sink.Records {
		online.Add(gateway.RecordPhase(rec))
	}
	if online.Max() <= 0 {
		t.Fatal("online sweep empty")
	}
	if math.Abs(online.Max()-rep.RequiredBandwidth)/rep.RequiredBandwidth > 0.01 {
		t.Fatalf("online %v vs offline %v", online.Max(), rep.RequiredBandwidth)
	}
	if rep.FirstLimitAt == 0 {
		t.Fatal("frequent strategy never limited")
	}
	// Per-class limits in force on both classes.
	a := sys.Agent(0)
	if math.IsInf(a.ClassLimit(pfs.Write), 1) || math.IsInf(a.ClassLimit(pfs.Read), 1) {
		t.Fatal("class limits missing")
	}
	// JSON round-trip works with everything on.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	saved, err := tmio.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.BPhases) == 0 || len(saved.BPhases) != len(rep.BPhases) {
		t.Fatalf("JSON carries %d of %d phases", len(saved.BPhases), len(rep.BPhases))
	}
	// The overhead model ran (default enabled here).
	if rep.PostOverhead <= 0 {
		t.Fatal("no post overhead recorded")
	}
	// Engine statistics are plausible.
	st := e.Stats()
	if st.EventsRun == 0 || st.Procs < 16 {
		t.Fatalf("engine stats: %+v", st)
	}
}

// TestFtioOnTracedRun detects the checkpoint period of a traced periodic
// application from its report.
func TestFtioOnTracedRun(t *testing.T) {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    8,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
	})
	rep, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{
		Phases:        12,
		BytesPerPhase: 32 << 20,
		Compute:       2 * iobehind.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftio.DetectPhases(rep.TPhases, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Period.Seconds(); math.Abs(got-2) > 0.4 {
		t.Fatalf("detected period %v, want ≈2s", got)
	}
}

// TestBurstBufferWithTracer: a synchronous workload behind a burst buffer
// traced end to end; visible I/O nearly vanishes while the drain carries
// the bytes.
func TestBurstBufferWithTracer(t *testing.T) {
	fs := iobehind.FSConfig{WriteCapacity: 2e9, ReadCapacity: 2e9}
	run := func(bb *iobehind.BurstBufferConfig) iobehind.Distribution {
		sim := iobehind.NewSim(iobehind.Options{
			Ranks: 4,
			FS:    &fs,
			Agent: iobehind.AgentConfig{BurstBuffer: bb},
		})
		rep, err := sim.Run(func(r *iobehind.Rank) {
			f := sim.IO.Open(r, "ckpt")
			for j := 0; j < 4; j++ {
				f.WriteAt(0, 256<<20)
				r.Compute(2 * iobehind.Second)
			}
			r.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Distribution()
	}
	direct := run(nil)
	buffered := run(&iobehind.BurstBufferConfig{
		Capacity:  1 << 30,
		WriteRate: 8e9,
		DrainRate: 200e6,
	})
	if buffered.VisibleIO() >= direct.VisibleIO()/3 {
		t.Fatalf("burst buffer did not hide sync I/O: %v%% vs %v%%",
			buffered.VisibleIO(), direct.VisibleIO())
	}
}

// TestReplayAgreesWithRerun: replaying the direct strategy over a traced
// unlimited run predicts roughly the exploit share an actual direct run
// achieves.
func TestReplayAgreesWithRerun(t *testing.T) {
	cfg := iobehind.PhasedConfig{
		Phases:        10,
		BytesPerPhase: 64 << 20,
		Compute:       iobehind.Second,
	}
	sim := iobehind.NewSim(iobehind.Options{Ranks: 8, Seed: 5})
	traced, err := sim.Run(iobehind.PhasedMain(sim.IO, cfg))
	if err != nil {
		t.Fatal(err)
	}
	projected := tmio.Replay(traced.BPhases,
		tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1})

	sim = iobehind.NewSim(iobehind.Options{
		Ranks: 8, Seed: 5,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
	})
	actual, err := sim.Run(iobehind.PhasedMain(sim.IO, cfg))
	if err != nil {
		t.Fatal(err)
	}
	got := actual.Distribution().ExploitTotal() / 100
	want := projected.ExploitShare()
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("replay projected exploit %v, actual run %v", want, got)
	}
}

// TestDeterminismAcrossFeatures: the kitchen-sink configuration is still
// bit-for-bit reproducible.
func TestDeterminismAcrossFeatures(t *testing.T) {
	run := func() (des.Duration, float64) {
		e := des.NewEngine(11)
		w := mpi.NewWorld(e, mpi.Config{Size: 8})
		fs := pfs.New(e, pfs.Config{
			WriteCapacity: 5e9, ReadCapacity: 5e9,
			Noise: &pfs.NoiseConfig{Interval: des.Second, Amplitude: 0.4},
		})
		sys := mpiio.NewSystem(w, fs, adio.Config{
			HiccupProb: 0.01, QueueLatencyPerFlow: 10 * des.Microsecond,
		})
		tr := tmio.Attach(sys, tmio.StrategyConfig{Strategy: tmio.Adaptive, Tol: 1.1}, tmio.Config{})
		if err := w.Run(workloads.WacommMain(sys, workloads.WacommConfig{
			Particles: 200_000, Iterations: 6,
		})); err != nil {
			t.Fatal(err)
		}
		rep := tr.Report()
		return rep.Runtime, rep.RequiredBandwidth
	}
	r1, b1 := run()
	r2, b2 := run()
	if r1 != r2 || b1 != b2 {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", r1, b1, r2, b2)
	}
}

// TestSoakLargeMixed is a heavier end-to-end soak (skipped with -short):
// 512 ranks, WaComM++, storm models, noise, per-class frequent-strategy
// limiting — the whole stack at once.
func TestSoakLargeMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	e := des.NewEngine(99)
	w := mpi.NewWorld(e, mpi.Config{Size: 512, RanksPerNode: 64})
	fs := pfs.New(e, pfs.Config{
		WriteCapacity: 50e9, ReadCapacity: 50e9,
		Noise: &pfs.NoiseConfig{Interval: des.Second, Amplitude: 0.2},
	})
	sys := mpiio.NewSystem(w, fs, adio.Config{
		HiccupProb:          1e-4,
		QueueLatencyPerFlow: 5 * des.Microsecond,
	})
	tr := tmio.Attach(sys, tmio.StrategyConfig{Strategy: tmio.Frequent, Tol: 1.2}, tmio.Config{
		PerClassLimits: true,
	})
	if err := w.Run(workloads.WacommMain(sys, workloads.WacommConfig{
		Particles:  1_000_000,
		Iterations: 25,
	})); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	if rep.AsyncOps != 512*25 {
		t.Fatalf("ops = %d", rep.AsyncOps)
	}
	d := rep.Distribution()
	if d.AsyncWriteLost > 5 {
		t.Fatalf("soak lost = %v%%", d.AsyncWriteLost)
	}
	if rep.RequiredBandwidth <= 0 {
		t.Fatal("metrics missing")
	}
	if stalled := e.Stalled(); len(stalled) != 0 {
		t.Fatalf("stalled procs: %d", len(stalled))
	}
	st := e.Stats()
	t.Logf("soak: %d events, heap peak %d, %d procs, virtual %.1fs",
		st.EventsRun, st.MaxHeap, st.Procs, st.Now.Seconds())
}
