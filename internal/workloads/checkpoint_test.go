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

func TestYoungInterval(t *testing.T) {
	// MTBF 1 h, checkpoint cost 50 s: √(2·3600·50) = 600 s.
	got := YoungInterval(des.Hour, 50*des.Second)
	if math.Abs(got.Seconds()-600) > 1e-6 {
		t.Fatalf("young = %v, want 600s", got)
	}
	if YoungInterval(0, des.Second) != 0 || YoungInterval(des.Hour, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCheckpointNoFailures(t *testing.T) {
	s := newStack(t, 4, tmio.StrategyConfig{})
	cfg := CheckpointConfig{
		ComputeTotal:    10 * des.Second,
		Interval:        2 * des.Second,
		CheckpointBytes: 100 << 20,
	}
	main, probe := CheckpointMainWithProbe(s.sys, cfg)
	if err := s.w.Run(main); err != nil {
		t.Fatal(err)
	}
	if probe.Failures() != 0 {
		t.Fatalf("failures = %d with MTBF=0", probe.Failures())
	}
	rep := s.tr.Report()
	// 5 segments → 5 sync checkpoints per rank.
	if rep.SyncOps != 4*5 {
		t.Fatalf("sync ops = %d", rep.SyncOps)
	}
	// Runtime = compute + visible checkpoint time.
	if rep.AppTime.Seconds() < 10 {
		t.Fatalf("runtime %v below compute total", rep.AppTime)
	}
}

func TestCheckpointAsyncHidesCost(t *testing.T) {
	// A slow shared file system (2 GB/s) makes synchronous checkpoints
	// expensive (4 ranks × 512 MiB ≈ 1.07 s each on the critical path)
	// while the throttled asynchronous variant stays under-committed
	// (aggregate demand ≈ 1.3 GB/s) and hides everything but the final
	// checkpoint.
	run := func(async bool) des.Duration {
		e := des.NewEngine(7)
		w := mpi.NewWorld(e, mpi.Config{Size: 4})
		fs := pfs.New(e, pfs.Config{WriteCapacity: 2e9, ReadCapacity: 2e9})
		sys := mpiio.NewSystem(w, fs, adio.Config{})
		tr := tmio.Attach(sys, tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.2}, tmio.Config{
			DisableOverhead: true,
		})
		cfg := CheckpointConfig{
			ComputeTotal:    20 * des.Second,
			Interval:        2 * des.Second,
			CheckpointBytes: 512 << 20,
			Async:           async,
		}
		if err := w.Run(CheckpointMain(sys, cfg)); err != nil {
			t.Fatal(err)
		}
		return tr.Report().AppTime
	}
	sync := run(false)
	async := run(true)
	if sync.Seconds() < 28 {
		t.Fatalf("sync run = %v, expected ≈30s of visible checkpointing", sync)
	}
	if async >= sync-des.Duration(5*des.Second) {
		t.Fatalf("async checkpointing not clearly faster: %v vs %v", async, sync)
	}
}

func TestCheckpointFailuresInjected(t *testing.T) {
	s := newStack(t, 2, tmio.StrategyConfig{})
	cfg := CheckpointConfig{
		ComputeTotal:    30 * des.Second,
		Interval:        3 * des.Second,
		CheckpointBytes: 1 << 20,
		MTBF:            10 * des.Second, // aggressive: failures certain
		RestartRead:     true,
	}
	main, probe := CheckpointMainWithProbe(s.sys, cfg)
	if err := s.w.Run(main); err != nil {
		t.Fatal(err)
	}
	if probe.Failures() == 0 {
		t.Fatal("no failures despite MTBF ≪ runtime")
	}
	rep := s.tr.Report()
	// Restart reads occurred.
	if rep.TotalBytes[pfs.Read] == 0 {
		t.Fatal("no restart reads")
	}
	// Runtime exceeds the failure-free bound by the wasted work.
	if rep.AppTime.Seconds() <= 30 {
		t.Fatalf("runtime %v not extended by failures", rep.AppTime)
	}
}

func TestCheckpointFailuresDeterministic(t *testing.T) {
	run := func() (int, des.Duration) {
		s := newStack(t, 2, tmio.StrategyConfig{})
		cfg := CheckpointConfig{
			ComputeTotal: 20 * des.Second,
			Interval:     2 * des.Second,
			MTBF:         8 * des.Second,
		}
		main, probe := CheckpointMainWithProbe(s.sys, cfg)
		if err := s.w.Run(main); err != nil {
			t.Fatal(err)
		}
		return probe.Failures(), s.tr.Report().AppTime
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Fatalf("non-deterministic failures: %d/%v vs %d/%v", f1, t1, f2, t2)
	}
}

func TestCheckpointDefaults(t *testing.T) {
	cfg := CheckpointConfig{MTBF: des.Hour}.WithDefaults()
	if cfg.ComputeTotal != 10*des.Minute || cfg.Interval != des.Minute {
		t.Fatalf("defaults: %+v", cfg)
	}
}
