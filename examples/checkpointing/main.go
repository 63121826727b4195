// Checkpoint/restart under failures: how asynchronous, throttled
// checkpointing changes the classical Young/Daly trade-off.
//
//	go run ./examples/checkpointing
//
// With synchronous checkpoints, every checkpoint costs wall time, so the
// interval balances checkpoint overhead against lost work (Young's
// √(2·MTBF·C)). Asynchronous checkpoints hide the cost behind the next
// compute segment — and throttled to the required bandwidth they barely
// touch the shared file system — so shorter intervals become nearly free
// and the failure waste shrinks.
package main

import (
	"fmt"
	"log"

	"iobehind"
)

func main() {
	const ranks = 16
	fs := iobehind.FSConfig{WriteCapacity: 4e9, ReadCapacity: 4e9}
	base := iobehind.CheckpointConfig{
		ComputeTotal:    120 * iobehind.Second,
		CheckpointBytes: 512 << 20,
		MTBF:            40 * iobehind.Second,
		RestartRead:     true,
	}

	// Synchronous checkpoint cost: 16 ranks × 512 MiB over 4 GB/s ≈ 2.1 s.
	ckptCost := iobehind.Duration(float64(base.CheckpointBytes) * ranks / fs.WriteCapacity * float64(iobehind.Second))
	young := iobehind.YoungInterval(base.MTBF, ckptCost)
	fmt.Printf("synchronous checkpoint cost ≈ %.1f s; Young interval ≈ %.1f s\n\n",
		ckptCost.Seconds(), young.Seconds())

	fmt.Printf("%-34s %10s\n", "configuration", "runtime")
	for _, c := range []struct {
		name     string
		interval iobehind.Duration
		async    bool
	}{
		{"sync, Young interval", young, false},
		{"sync, interval/4 (too eager)", young / 4, false},
		{"async+limit, Young interval", young, true},
		{"async+limit, interval/4", young / 4, true},
	} {
		cfg := base
		cfg.Interval = c.interval
		cfg.Async = c.async
		strat := iobehind.StrategyConfig{}
		if c.async {
			strat = iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.2}
		}
		sim := iobehind.NewSim(iobehind.Options{
			Ranks:    ranks,
			FS:       &fs,
			Strategy: strat,
		})
		rep, err := sim.Run(iobehind.CheckpointMain(sim.IO, cfg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %9.1fs\n", c.name, rep.AppTime.Seconds())
	}

	fmt.Println("\nSynchronous checkpointing punishes eager intervals (every checkpoint")
	fmt.Println("is on the critical path); hidden, throttled checkpoints make short")
	fmt.Println("intervals cheap, so less work is lost per failure.")
}
