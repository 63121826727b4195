// WaComM++ example: reproduce the Fig. 8/9 contrast at small scale — the
// same CFD kernel traced once without limiting (throughput bursts at
// file-system speed) and once with the up-only strategy (throughput
// follows the applied limit B_L of the previous phase).
//
//	go run ./examples/wacomm
package main

import (
	"fmt"
	"log"

	"iobehind"
)

func main() {
	cfg := iobehind.WacommConfig{
		Particles:  400_000,
		Iterations: 12,
	}

	burst := run(iobehind.StrategyConfig{}, cfg)
	limited := run(iobehind.StrategyConfig{Strategy: iobehind.UpOnly, Tol: 1.1}, cfg)

	fmt.Println("WaComM++, 24 ranks, 12 simulated hours")
	fmt.Println("\nWithout bandwidth limit (Fig. 8):")
	describe(burst)
	fmt.Println("\nWith the up-only strategy (Fig. 9):")
	describe(limited)

	fmt.Println("\nThe headline property of Fig. 9: after the limit starts, the")
	fmt.Println("throughput T of each phase follows the limit B_L derived from the")
	fmt.Println("previous phase, instead of bursting at file-system speed. The")
	fmt.Printf("application is unaffected: %.1f s vs %.1f s.\n",
		limited.AppTime.Seconds(), burst.AppTime.Seconds())
}

func run(strat iobehind.StrategyConfig, cfg iobehind.WacommConfig) *iobehind.Report {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    24,
		Strategy: strat,
	})
	rep, err := sim.Run(iobehind.WacommMain(sim.IO, cfg))
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func describe(rep *iobehind.Report) {
	d := rep.Distribution()
	fmt.Printf("  runtime %.1f s, required bandwidth B = %.1f MB/s\n",
		rep.AppTime.Seconds(), rep.RequiredBandwidth/1e6)
	fmt.Printf("  exploit %.1f%%, waiting %.1f%%\n",
		d.ExploitTotal(), d.AsyncWriteLost+d.AsyncReadLost)
	if rep.FirstLimitAt != 0 {
		fmt.Printf("  limit first applied at %.1f s\n", rep.FirstLimitAt.Seconds())
	}
	// Sample a mid-run phase of rank 0 to show the pacing.
	for _, ph := range rep.TPhases {
		if ph.Rank == 0 && ph.Index == 5 {
			fmt.Printf("  rank 0, phase 5: throughput %.1f MB/s over %.2f s\n",
				ph.Value/1e6, ph.End.Sub(ph.Start).Seconds())
		}
	}
}
