// Quickstart: trace a minimal asynchronous checkpointing application,
// find its required bandwidth, and let the direct strategy throttle it.
//
//	go run ./examples/quickstart
//
// The kernel is the paper's Fig. 3 pattern: every rank alternates compute
// phases with one asynchronous checkpoint write, fenced by MPI_Wait at the
// end of the next compute phase. TMIO measures, for every rank and phase,
// the bandwidth B_ij required to finish the write entirely behind the
// compute phase, and limits the next phase's throughput to B_ij · tol.
package main

import (
	"fmt"
	"log"

	"iobehind"
)

func main() {
	// 16 ranks, 64 MiB checkpoint per rank per phase, 1 s compute phases.
	// The direct strategy with tol = 1.1 throttles each rank to 110% of
	// its measured requirement.
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    16,
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
	})
	report, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{
		Phases:        10,
		BytesPerPhase: 64 << 20,
		Compute:       iobehind.Second,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Quickstart: asynchronous checkpointing behind the scenes")
	fmt.Printf("  ranks                    %d\n", report.Ranks)
	fmt.Printf("  runtime                  %.2f s\n", report.AppTime.Seconds())
	fmt.Printf("  required bandwidth B     %.1f MB/s (application level)\n",
		report.RequiredBandwidth/1e6)
	fmt.Printf("  limit first applied at   %.2f s\n", report.FirstLimitAt.Seconds())

	d := report.Distribution()
	fmt.Println("\nWhere the time went (percent of total rank time):")
	fmt.Printf("  hidden async I/O (exploit)  %5.1f%%\n", d.AsyncWriteExploit)
	fmt.Printf("  visible I/O (waiting)       %5.1f%%\n", d.AsyncWriteLost)
	fmt.Printf("  compute (I/O free)          %5.1f%%\n", d.ComputeFree)

	// The throughput of phase j+1 follows the limit derived from phase j:
	// after the first phase, writes are paced at ~70 MB/s instead of
	// bursting at file-system speed.
	fmt.Println("\nPer-phase throughput of rank 0 (first phase bursts, later ones are paced):")
	for _, ph := range report.TPhases {
		if ph.Rank != 0 {
			continue
		}
		fmt.Printf("  phase %d: %8.1f MB/s over %.2f s\n",
			ph.Index, ph.Value/1e6, ph.End.Sub(ph.Start).Seconds())
	}
}
