package iobehind_test

import (
	"math"
	"testing"

	"iobehind"
	"iobehind/internal/faults"
	"iobehind/internal/pfs"
)

func TestRunPhasedFacade(t *testing.T) {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    4,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
	})
	rep, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{
		Phases:        5,
		BytesPerPhase: 8 << 20,
		Compute:       200 * iobehind.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 4 || rep.AsyncOps != 20 {
		t.Fatalf("ranks=%d asyncOps=%d", rep.Ranks, rep.AsyncOps)
	}
	if rep.RequiredBandwidth <= 0 {
		t.Fatal("no required bandwidth")
	}
	if rep.FirstLimitAt == 0 {
		t.Fatal("limit never applied")
	}
}

func TestRunHaccAndWacommFacades(t *testing.T) {
	sim := iobehind.NewSim(iobehind.Options{Ranks: 2})
	hacc, err := sim.Run(iobehind.HaccMain(sim.IO,
		iobehind.HaccConfig{Loops: 2, ParticlesPerRank: 100_000}))
	if err != nil {
		t.Fatal(err)
	}
	if hacc.AsyncOps != 2*2*2 {
		t.Fatalf("hacc asyncOps = %d", hacc.AsyncOps)
	}
	sim = iobehind.NewSim(iobehind.Options{Ranks: 2})
	wacomm, err := sim.Run(iobehind.WacommMain(sim.IO,
		iobehind.WacommConfig{Particles: 10_000, Iterations: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if wacomm.AsyncOps != 2*3 {
		t.Fatalf("wacomm asyncOps = %d", wacomm.AsyncOps)
	}
}

func TestNewSimExposesStack(t *testing.T) {
	sim := iobehind.NewSim(iobehind.Options{Ranks: 2, Seed: 42})
	if sim.Engine == nil || sim.World == nil || sim.FS == nil || sim.IO == nil || sim.Tracer == nil {
		t.Fatal("stack incomplete")
	}
	if sim.World.Size() != 2 {
		t.Fatalf("size = %d", sim.World.Size())
	}
	// Default file system is the Lichtenberg configuration.
	if sim.FS.Capacity(0) != 106e9 {
		t.Fatalf("write capacity = %v", sim.FS.Capacity(0))
	}
	rep, err := sim.Run(func(r *iobehind.Rank) { r.Compute(iobehind.Second) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.AppTime.Seconds()-1) > 0.01 {
		t.Fatalf("app time = %v", rep.AppTime)
	}
}

// TestNewSimInjectsFaults: Options.Faults reaches the I/O agents (the
// transient errors are retried) and the tracer (the phases they overlap
// are tainted).
func TestNewSimInjectsFaults(t *testing.T) {
	fs := iobehind.FSConfig{WriteCapacity: 1e9, ReadCapacity: 1e9}
	run := func(f *iobehind.FaultConfig) *iobehind.Report {
		sim := iobehind.NewSim(iobehind.Options{
			Ranks:    2,
			FS:       &fs,
			Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
			Faults:   f,
		})
		rep, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{
			Phases:        4,
			BytesPerPhase: 64 << 20,
			Compute:       500 * iobehind.Millisecond,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean := run(nil)
	faulted := run(&iobehind.FaultConfig{Windows: []faults.Window{{
		Kind: faults.IOError, Class: pfs.Write, Start: 0, Dur: 10 * iobehind.Second, Prob: 0.5,
	}}})
	if clean.Retries != 0 || clean.FaultPhases != 0 {
		t.Fatalf("clean run: %d retries, %d fault phases", clean.Retries, clean.FaultPhases)
	}
	if faulted.Retries == 0 || faulted.FaultPhases == 0 {
		t.Fatalf("faulted run: %d retries, %d fault phases", faulted.Retries, faulted.FaultPhases)
	}
}

func TestNoTracerRuns(t *testing.T) {
	sim := iobehind.NewSim(iobehind.Options{Ranks: 2, NoTracer: true})
	if sim.Tracer != nil {
		t.Fatal("tracer attached despite NoTracer")
	}
	rep, err := sim.Run(func(r *iobehind.Rank) { r.Compute(iobehind.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatal("report without tracer")
	}
}

func TestRunClusterFacade(t *testing.T) {
	fs := iobehind.FSConfig{WriteCapacity: 1e9, ReadCapacity: 1e9}
	res, err := iobehind.RunCluster(iobehind.ClusterConfig{
		Nodes: 8,
		FS:    &fs,
		Jobs: []iobehind.JobSpec{
			{Nodes: 2, Loops: 2, BytesPerNode: 1 << 28, Compute: iobehind.Second},
			{Nodes: 2, Async: true, Loops: 2, BytesPerNode: 1 << 27,
				Compute: 2 * iobehind.Second},
		},
		Policy: iobehind.LimitDuringContention,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	scenario := iobehind.DefaultClusterScenario(iobehind.NoLimit)
	if len(scenario.Jobs) != 8 {
		t.Fatalf("default scenario jobs = %d", len(scenario.Jobs))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *iobehind.Report {
		sim := iobehind.NewSim(iobehind.Options{Ranks: 4, Seed: 99})
		rep, err := sim.Run(iobehind.HaccMain(sim.IO,
			iobehind.HaccConfig{Loops: 3, ParticlesPerRank: 200_000}))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime || a.RequiredBandwidth != b.RequiredBandwidth {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v",
			a.Runtime, a.RequiredBandwidth, b.Runtime, b.RequiredBandwidth)
	}
	if a.AppTime != b.AppTime || a.PeriOverhead != b.PeriOverhead {
		t.Fatal("non-deterministic overheads")
	}
}
