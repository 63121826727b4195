// Predictive I/O scheduling: the full TMIO → FTIO → contention-monitor
// loop the paper sketches as future work.
//
//	go run ./examples/predictive
//
// A strongly periodic synchronous job shares the file system with a
// compute-heavy asynchronous job. The reactive policy caps the async job
// when it sees contention; the predictive policy detects the sync job's
// burst period from its observed bandwidth (FTIO), forecasts the next
// burst, and installs the cap *before* the burst arrives — then releases
// it in the gaps, where throttling would only waste the idle bandwidth.
package main

import (
	"fmt"
	"log"

	"iobehind"
)

func main() {
	fs := iobehind.FSConfig{WriteCapacity: 1e9, ReadCapacity: 1e9}
	jobs := []iobehind.JobSpec{
		// Periodic sync job: 6 s compute, ~2 s burst, 12 cycles
		// (a 25% duty cycle leaves real gaps between bursts).
		{Nodes: 4, Loops: 12, BytesPerNode: 1 << 29, Compute: 6 * iobehind.Second},
		// Compute-heavy async job.
		{Nodes: 4, Async: true, Loops: 16, BytesPerNode: 1 << 27,
			Compute: 5 * iobehind.Second},
	}
	run := func(policy iobehind.LimitPolicy) *iobehind.ClusterResult {
		res, err := iobehind.RunCluster(iobehind.ClusterConfig{
			Nodes: 16, FS: &fs, Jobs: jobs, Policy: policy,
			MonitorInterval: 250 * iobehind.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("%-24s %12s %12s %8s\n", "policy", "sync job", "async job", "toggles")
	for _, p := range []struct {
		name   string
		policy iobehind.LimitPolicy
	}{
		{"no limit", iobehind.NoLimit},
		{"reactive (contention)", iobehind.LimitDuringContention},
		{"predictive (FTIO)", iobehind.LimitPredictive},
	} {
		res := run(p.policy)
		fmt.Printf("%-24s %11.1fs %11.1fs %8d\n", p.name,
			res.Jobs[0].Runtime().Seconds(),
			res.Jobs[1].Runtime().Seconds(),
			res.LimitToggles)
	}
	fmt.Println("\nThe predictive policy toggles the cap in step with the sync job's")
	fmt.Println("detected burst period: capped just ahead of each burst, free in the")
	fmt.Println("gaps — contention protection without permanent throttling.")
}
