package workloads

import (
	"math"
	"testing"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/tmio"
)

type stack struct {
	e   *des.Engine
	w   *mpi.World
	fs  *pfs.PFS
	sys *mpiio.System
	tr  *tmio.Tracer
}

func newStack(t *testing.T, ranks int, strat tmio.StrategyConfig) *stack {
	t.Helper()
	e := des.NewEngine(7)
	w := mpi.NewWorld(e, mpi.Config{Size: ranks})
	fs := pfs.New(e, pfs.LichtenbergConfig())
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := tmio.Attach(sys, strat, tmio.Config{DisableOverhead: true})
	return &stack{e: e, w: w, fs: fs, sys: sys, tr: tr}
}

func TestHaccConfigDefaults(t *testing.T) {
	cfg := HaccConfig{}.WithDefaults()
	if cfg.Loops != 10 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if got := cfg.DataBytes(); got != 5_500_000*38 {
		t.Fatalf("data bytes = %d", got)
	}
	// Phase growth: compute+verify ≈ 0.6 s at 1 rank and ≈105 s at 9216
	// ranks, the paper's quoted span.
	phase := func(n int) float64 {
		return cfg.ComputeDuration(n).Seconds() + cfg.VerifyDuration(n).Seconds()
	}
	if got := phase(1); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("phase(1) = %v, want 0.6", got)
	}
	if got := phase(9216); got < 90 || got > 120 {
		t.Fatalf("phase(9216) = %v, want ≈105", got)
	}
	// The 1-rank required bandwidth ≈ paper's 0.7 GB/s.
	if b := float64(cfg.DataBytes()) / cfg.VerifyDuration(1).Seconds(); b < 0.55e9 || b > 0.85e9 {
		t.Fatalf("B(1) = %v, want ≈0.7e9", b)
	}
	fixed := HaccConfig{FixedPhase: des.Second}.WithDefaults()
	if fixed.ComputeDuration(9216) != des.Second {
		t.Fatal("FixedPhase not honoured")
	}
}

func TestHaccPhaseStructure(t *testing.T) {
	s := newStack(t, 2, tmio.StrategyConfig{})
	cfg := HaccConfig{
		Loops:            3,
		ParticlesPerRank: 100_000,
		FixedPhase:       200 * des.Millisecond,
		JitterFraction:   -1, // disabled
	}
	if err := s.w.Run(HaccMain(s.sys, cfg)); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	// Per loop: one async write + one async read per rank.
	if rep.AsyncOps != 2*3*2 {
		t.Fatalf("async ops = %d, want 12", rep.AsyncOps)
	}
	// One sync header write per loop per rank.
	if rep.SyncOps != 2*3 {
		t.Fatalf("sync ops = %d, want 6", rep.SyncOps)
	}
	// Write and read phases alternate: reads and writes both present.
	if rep.TotalBytes[pfs.Write] <= 0 || rep.TotalBytes[pfs.Read] <= 0 {
		t.Fatalf("bytes: %v", rep.TotalBytes)
	}
	// Writes: header (sync) + data (async) per loop; async write bytes ==
	// async read bytes.
	wantData := int64(100_000) * 38 * 3 * 2
	if rep.TotalBytes[pfs.Read] != wantData {
		t.Fatalf("read bytes = %d, want %d", rep.TotalBytes[pfs.Read], wantData)
	}
}

func TestHaccRequiredBandwidthScalesWithRanks(t *testing.T) {
	required := func(ranks int) float64 {
		s := newStack(t, ranks, tmio.StrategyConfig{})
		cfg := HaccConfig{Loops: 2, ParticlesPerRank: 1_000_000}
		if err := s.w.Run(HaccMain(s.sys, cfg)); err != nil {
			t.Fatal(err)
		}
		return s.tr.Report().RequiredBandwidth
	}
	b1, b8 := required(1), required(8)
	if b8 <= b1 {
		t.Fatalf("required bandwidth should grow with ranks: %v vs %v", b1, b8)
	}
	// Growth is sublinear in ranks because the phases lengthen too.
	if b8 >= 8*b1 {
		t.Fatalf("required bandwidth grew superlinearly: %v vs %v", b1, b8)
	}
}

func TestHaccLimitingIncreasesExploit(t *testing.T) {
	run := func(strat tmio.StrategyConfig) tmio.Distribution {
		s := newStack(t, 4, strat)
		cfg := HaccConfig{Loops: 5, ParticlesPerRank: 2_000_000, FixedPhase: 500 * des.Millisecond}
		if err := s.w.Run(HaccMain(s.sys, cfg)); err != nil {
			t.Fatal(err)
		}
		return s.tr.Report().Distribution()
	}
	limited := run(tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1})
	unlimited := run(tmio.StrategyConfig{})
	if limited.ExploitTotal() <= unlimited.ExploitTotal() {
		t.Fatalf("limiting should raise exploit: %v vs %v",
			limited.ExploitTotal(), unlimited.ExploitTotal())
	}
	// The paper's headline: wait time stays negligible under limiting.
	if lost := limited.AsyncWriteLost + limited.AsyncReadLost; lost > 5 {
		t.Fatalf("limited run lost = %v%%, want small", lost)
	}
}

func TestHaccRuntimeNotSignificantlyChangedByLimiting(t *testing.T) {
	run := func(strat tmio.StrategyConfig) des.Duration {
		s := newStack(t, 4, strat)
		cfg := HaccConfig{Loops: 4, ParticlesPerRank: 2_000_000, FixedPhase: 500 * des.Millisecond}
		if err := s.w.Run(HaccMain(s.sys, cfg)); err != nil {
			t.Fatal(err)
		}
		return s.tr.Report().AppTime
	}
	limited := run(tmio.StrategyConfig{Strategy: tmio.UpOnly, Tol: 1.1})
	unlimited := run(tmio.StrategyConfig{})
	delta := math.Abs(limited.Seconds()-unlimited.Seconds()) / unlimited.Seconds()
	if delta > 0.05 {
		t.Fatalf("limiting changed runtime by %.1f%% (limited %v, unlimited %v)",
			100*delta, limited, unlimited)
	}
}

func TestWacommConfigDefaults(t *testing.T) {
	cfg := WacommConfig{}.WithDefaults()
	if cfg.Particles != 2_000_000 || cfg.Iterations != 50 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if got := cfg.TotalBytes(); got != 2_000_000*48 {
		t.Fatalf("total bytes = %d", got)
	}
	if got := cfg.BytesPerRank(96); got != 2_000_000*48/96 {
		t.Fatalf("bytes/rank = %d", got)
	}
	// Calibration anchors: ≈0.62 s at 96 ranks, ≈2.3 s at 9216 ranks.
	if got := cfg.IterationDuration(96).Seconds(); got < 0.5 || got > 0.75 {
		t.Fatalf("iteration(96) = %v, want ≈0.6", got)
	}
	if got := cfg.IterationDuration(9216).Seconds(); got < 2.0 || got > 2.6 {
		t.Fatalf("iteration(9216) = %v, want ≈2.3", got)
	}
}

func TestWacommStructure(t *testing.T) {
	s := newStack(t, 4, tmio.StrategyConfig{})
	cfg := WacommConfig{
		Particles:      40_000,
		Iterations:     5,
		ReadEvery:      2,
		JitterFraction: -1,
	}
	if err := s.w.Run(WacommMain(s.sys, cfg)); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	// One async write per rank per iteration.
	if rep.AsyncOps != 4*5 {
		t.Fatalf("async ops = %d, want 20", rep.AsyncOps)
	}
	// Sync ops: rank 0's initial read + 2 hourly reads (it=2, it=4) +
	// one final write per rank.
	if rep.SyncOps != 3+4 {
		t.Fatalf("sync ops = %d, want 7", rep.SyncOps)
	}
	if rep.TotalBytes[pfs.Read] == 0 {
		t.Fatal("no read traffic")
	}
}

func TestWacommThroughputFollowsLimit(t *testing.T) {
	// The Fig. 9 property: with up-only, T of phase j+1 ≈ B_L of phase j,
	// far below the unthrottled burst rate.
	s := newStack(t, 8, tmio.StrategyConfig{Strategy: tmio.UpOnly, Tol: 1.1})
	cfg := WacommConfig{Particles: 4_000_000, Iterations: 8, JitterFraction: -1}
	if err := s.w.Run(WacommMain(s.sys, cfg)); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	if len(rep.BLPhases) == 0 {
		t.Fatal("no B_L phases")
	}
	// The first phase runs before any limit exists (Fig. 9's purple line);
	// from phase 2 on, each rank's measured throughput must track the
	// applied limit instead of the FS-speed burst rate.
	var blMax float64
	for _, ph := range rep.BLPhases {
		if ph.Value > blMax {
			blMax = ph.Value
		}
	}
	for _, ph := range rep.TPhases {
		if ph.Index < 2 {
			continue
		}
		if ph.Value > 2.2*blMax {
			t.Fatalf("throttled phase %d of rank %d ran at %v, limit peak %v",
				ph.Index, ph.Rank, ph.Value, blMax)
		}
	}
	if blMax > 1e9 {
		t.Fatalf("B_L peak %v should be far below FS speed", blMax)
	}
}

func TestWacommUnlimitedBursts(t *testing.T) {
	s := newStack(t, 8, tmio.StrategyConfig{})
	cfg := WacommConfig{Particles: 4_000_000, Iterations: 8, JitterFraction: -1}
	if err := s.w.Run(WacommMain(s.sys, cfg)); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	// Unthrottled bursts run at FS speed: application-level T in the
	// multi-GB/s range, far above the required bandwidth.
	if tMax := rep.TSeries().Max(); tMax < 1e9 {
		t.Fatalf("unthrottled T peak = %v, want burst-level", tMax)
	}
	if rep.TSeries().Max() < 10*rep.RequiredBandwidth {
		t.Fatalf("burst should dwarf required bandwidth: T=%v B=%v",
			rep.TSeries().Max(), rep.RequiredBandwidth)
	}
}

func TestPhasedMainDefaults(t *testing.T) {
	s := newStack(t, 2, tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.5})
	if err := s.w.Run(PhasedMain(s.sys, PhasedConfig{
		Phases: 4, BytesPerPhase: 1 << 20, Compute: 100 * des.Millisecond,
	})); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	if rep.AsyncOps != 8 {
		t.Fatalf("async ops = %d", rep.AsyncOps)
	}
	if len(rep.BPhases) != 8 {
		t.Fatalf("B phases = %d", len(rep.BPhases))
	}
	if rep.FirstLimitAt == 0 {
		t.Fatal("limit never applied")
	}
	def := PhasedConfig{}.WithDefaults()
	if def.Phases != 10 || def.BytesPerPhase != 64<<20 || def.Compute != des.Second {
		t.Fatalf("defaults: %+v", def)
	}
}

func TestIorDefaults(t *testing.T) {
	cfg := IorConfig{}.WithDefaults()
	if cfg.Segments != 4 || cfg.BlockSize != 256<<20 || cfg.TransferSize != 16<<20 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if got := cfg.TotalBytesPerRank(); got != 4*(256<<20) {
		t.Fatalf("total = %d", got)
	}
	clamped := IorConfig{BlockSize: 1 << 20, TransferSize: 8 << 20}.WithDefaults()
	if clamped.TransferSize != 1<<20 {
		t.Fatal("transfer size not clamped to block size")
	}
}

func TestIorIndividualWriteBandwidth(t *testing.T) {
	s := newStack(t, 4, tmio.StrategyConfig{})
	cfg := IorConfig{Segments: 2, BlockSize: 64 << 20, TransferSize: 16 << 20}
	if err := s.w.Run(IorMain(s.sys, cfg)); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	wantBytes := int64(4) * cfg.TotalBytesPerRank()
	if rep.TotalBytes[pfs.Write] != wantBytes {
		t.Fatalf("bytes = %d, want %d", rep.TotalBytes[pfs.Write], wantBytes)
	}
	// 512 MiB over a 106 GB/s system ≈ 5 ms; the run is I/O-bound.
	if rep.AppTime.Seconds() > 0.1 {
		t.Fatalf("runtime = %v", rep.AppTime)
	}
}

func TestIorReadBackAndModes(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  IorConfig
	}{
		{"individual", IorConfig{Segments: 1, BlockSize: 8 << 20, ReadBack: true}},
		{"collective", IorConfig{Segments: 1, BlockSize: 8 << 20, ReadBack: true, Collective: true}},
		{"async", IorConfig{Segments: 2, BlockSize: 8 << 20, ReadBack: true, Async: true,
			ComputeBetween: 50 * des.Millisecond}},
	} {
		s := newStack(t, 4, tmio.StrategyConfig{})
		if err := s.w.Run(IorMain(s.sys, mode.cfg)); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		rep := s.tr.Report()
		if rep.TotalBytes[pfs.Write] == 0 || rep.TotalBytes[pfs.Read] == 0 {
			t.Fatalf("%s: bytes %v", mode.name, rep.TotalBytes)
		}
	}
}

func TestIorAsyncOverlap(t *testing.T) {
	s := newStack(t, 2, tmio.StrategyConfig{})
	cfg := IorConfig{
		Segments: 4, BlockSize: 16 << 20, TransferSize: 16 << 20,
		Async: true, ComputeBetween: 200 * des.Millisecond,
	}
	if err := s.w.Run(IorMain(s.sys, cfg)); err != nil {
		t.Fatal(err)
	}
	rep := s.tr.Report()
	// All writes but the last are hidden behind compute: runtime ≈ the
	// compute total, and no waits occur.
	if got := rep.Distribution().AsyncWriteLost; got > 1 {
		t.Fatalf("async IOR lost = %v%%", got)
	}
	if rep.AsyncOps != 2*4 {
		t.Fatalf("async ops = %d", rep.AsyncOps)
	}
}
