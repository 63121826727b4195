// HACC-IO example: compare all three limiting strategies (and no limiting)
// on the modified HACC-IO benchmark of the paper's Sec. VI-B.
//
//	go run ./examples/haccio
//
// The benchmark loops over compute → async write → verify → async read
// blocks (Fig. 12); the write hides behind the verify block and the read
// behind the next compute block. Each strategy trades risk for
// exploitation: direct is aggressive, up-only is safe, adaptive sits in
// between.
package main

import (
	"fmt"
	"log"

	"iobehind"
)

func main() {
	strategies := []iobehind.StrategyConfig{
		{Strategy: iobehind.Direct, Tol: 1.1},
		{Strategy: iobehind.UpOnly, Tol: 1.1},
		{Strategy: iobehind.Adaptive, Tol: 1.1},
		{}, // no limiting
	}

	fmt.Println("HACC-IO, 32 ranks, 5 loops, 2e6 particles/rank — strategy comparison")
	fmt.Printf("%-20s %10s %12s %10s %10s %10s\n",
		"strategy", "runtime", "B required", "exploit", "lost", "T peak")
	for i, strat := range strategies {
		sim := iobehind.NewSim(iobehind.Options{
			Ranks:    32,
			Seed:     int64(i + 1),
			Strategy: strat,
		})
		rep, err := sim.Run(iobehind.HaccMain(sim.IO, iobehind.HaccConfig{
			Loops:            5,
			ParticlesPerRank: 2_000_000,
		}))
		if err != nil {
			log.Fatal(err)
		}
		d := rep.Distribution()
		// Peak throughput after the limiter engages (phase >= 2).
		var throttledPeak float64
		for _, ph := range rep.TPhases {
			if ph.Index >= 2 && ph.Value > throttledPeak {
				throttledPeak = ph.Value
			}
		}
		fmt.Printf("%-20s %9.1fs %10.2f GB/s %9.1f%% %9.1f%% %7.0f MB/s\n",
			strat.Label(),
			rep.AppTime.Seconds(),
			rep.RequiredBandwidth/1e9,
			d.ExploitTotal(),
			d.AsyncWriteLost+d.AsyncReadLost,
			throttledPeak/1e6,
		)
	}

	fmt.Println("\nReading the table:")
	fmt.Println("  - runtime barely changes: the limits only reshape *hidden* I/O;")
	fmt.Println("  - exploit (I/O hidden behind compute) jumps with any strategy;")
	fmt.Println("  - the throttled throughput peak collapses from file-system burst")
	fmt.Println("    speed to roughly the required bandwidth — the flattened burst")
	fmt.Println("    spares the shared file system for everyone else.")
}
