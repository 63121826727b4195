// IOR-style access-mode comparison: individual file pointers vs two-phase
// collective I/O vs asynchronous overlap, under burst-storm conditions.
//
//	go run ./examples/ior
//
// The paper's HACC-IO configuration deliberately uses "an individual file
// pointer to distinct files, which is more challenging than collective
// I/O". This example quantifies that remark with an IOR-shaped workload:
// many small per-rank transfers issued simultaneously. Individual mode
// pays the per-operation storm cost on every rank; collective mode
// aggregates to one operation per node; asynchronous mode hides the cost
// behind compute.
package main

import (
	"fmt"
	"log"

	"iobehind"
)

func main() {
	base := iobehind.IorConfig{
		Segments:     6,
		BlockSize:    4 << 20, // small blocks: per-op costs dominate
		TransferSize: 4 << 20,
		ReadBack:     false,
	}

	modes := []struct {
		name string
		cfg  iobehind.IorConfig
	}{
		{"individual (blocking)", base},
		{"collective (write_at_all)", func() iobehind.IorConfig {
			c := base
			c.Collective = true
			return c
		}()},
		{"async + overlap", func() iobehind.IorConfig {
			c := base
			c.Async = true
			c.ComputeBetween = 500 * iobehind.Millisecond
			return c
		}()},
	}

	fmt.Println("IOR-style write phase: 64 ranks × 6 segments × 4 MiB, storm latency on")
	fmt.Printf("%-28s %10s %12s %12s\n", "mode", "runtime", "visible I/O", "ops")
	for _, m := range modes {
		sim := iobehind.NewSim(iobehind.Options{
			Ranks:        64,
			RanksPerNode: 16,
			Agent: iobehind.AgentConfig{
				SubmitLatencyPerFlow: 2 * iobehind.Millisecond,
			},
		})
		rep, err := sim.Run(iobehind.IorMain(sim.IO, m.cfg))
		if err != nil {
			log.Fatal(err)
		}
		d := rep.Distribution()
		fmt.Printf("%-28s %9.2fs %11.1f%% %12d\n",
			m.name, rep.AppTime.Seconds(), d.VisibleIO(), rep.SyncOps+rep.AsyncOps)
	}
	fmt.Println("\nCollective aggregation cuts the operation count per storm window by")
	fmt.Println("the ranks-per-node factor; asynchronous issue hides what remains.")
}
