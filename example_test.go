package iobehind_test

import (
	"fmt"

	"iobehind"
)

// The basic workflow: assemble a traced simulation, run a workload on
// it, and read the paper's metrics from the report.
func Example() {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    16,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
		Tracer:   iobehind.TracerConfig{DisableOverhead: true},
	})
	report, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{
		Phases:        10,
		BytesPerPhase: 64 << 20,
		Compute:       iobehind.Second,
	}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("required bandwidth: %.0f MB/s\n", report.RequiredBandwidth/1e6)
	fmt.Printf("limit first applied at %.0f s\n", report.FirstLimitAt.Seconds())
	d := report.Distribution()
	fmt.Printf("hidden I/O: %.0f%%, waiting: %.0f%%\n",
		d.AsyncWriteExploit, d.AsyncWriteLost)
	// Output:
	// required bandwidth: 1074 MB/s
	// limit first applied at 2 s
	// hidden I/O: 67%, waiting: 8%
}

// Custom applications are plain Go functions over the MPI-IO API; the
// tracer observes them without any changes, like TMIO's LD_PRELOAD.
func ExampleNewSim() {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    4,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.UpOnly, Tol: 1.1},
		Tracer:   iobehind.TracerConfig{DisableOverhead: true},
	})
	report, err := sim.Run(func(r *iobehind.Rank) {
		f := sim.IO.Open(r, "out.dat")
		var req interface{ Wait() }
		for j := 0; j < 5; j++ {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(0, 32<<20) // asynchronous checkpoint
			r.Compute(iobehind.Second)  // the write hides behind this
		}
		req.Wait()
		r.Finalize()
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d async ops, %.0f MB/s required\n",
		report.AsyncOps, report.RequiredBandwidth/1e6)
	// Output:
	// 20 async ops, 134 MB/s required
}

// YoungInterval gives the classical optimal checkpoint period; with
// asynchronous, throttled checkpoints the visible cost (and thus the
// optimal interval) collapses.
func ExampleYoungInterval() {
	mtbf := iobehind.Duration(3600) * iobehind.Second
	cost := iobehind.Duration(50) * iobehind.Second
	fmt.Printf("optimal interval: %.0f s\n", iobehind.YoungInterval(mtbf, cost).Seconds())
	// Output:
	// optimal interval: 600 s
}

// The cluster scenario of the paper's Fig. 1: limiting the async job to
// its requirement during contention shortens the synchronous jobs.
func ExampleRunCluster() {
	fs := iobehind.FSConfig{WriteCapacity: 10e9, ReadCapacity: 10e9}
	cfg := iobehind.ClusterConfig{
		Nodes: 16,
		FS:    &fs,
		Jobs: []iobehind.JobSpec{
			{Nodes: 8, Loops: 3, BytesPerNode: 2 << 30, Compute: 4 * iobehind.Second},
			{Nodes: 8, Async: true, Loops: 3, BytesPerNode: 1 << 29,
				Compute: 6 * iobehind.Second},
		},
		Policy: iobehind.LimitDuringContention,
	}
	res, err := iobehind.RunCluster(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("jobs finished: %d; async job capped %d time(s)\n",
		len(res.Jobs), res.LimitToggles)
	// Output:
	// jobs finished: 2; async job capped 3 time(s)
}
