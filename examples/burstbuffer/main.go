// Burst-buffer example: the paper's future-work setting — "a similar
// definition [of the required bandwidth] for synchronous I/O in the
// presence of burst buffers".
//
//	go run ./examples/burstbuffer
//
// A synchronous application cannot hide its I/O behind compute, so
// normally its runtime depends directly on file-system speed. With a
// node-local burst buffer, the synchronous write completes at buffer speed
// and the *drain* to the shared file system is what needs provisioning.
// The drain rate plays the role the required bandwidth plays for
// asynchronous I/O: provision it at bytes/period and the buffer never
// fills, while the shared system only ever sees the gentle drain.
package main

import (
	"fmt"
	"log"

	"iobehind"
	"iobehind/internal/pfs"
)

func main() {
	const (
		ranks         = 8
		bytesPerPhase = 512 << 20 // 512 MiB synchronous checkpoint
		phases        = 6
	)
	period := 10 * iobehind.Second

	// The burst-buffer analogue of the paper's required bandwidth.
	drain := pfs.RequiredDrainRate(bytesPerPhase, period) * 1.1

	slowFS := iobehind.FSConfig{WriteCapacity: 2e9, ReadCapacity: 2e9}

	run := func(bb *iobehind.BurstBufferConfig) *iobehind.Report {
		rep, err := runSync(bb, slowFS, ranks, phases, bytesPerPhase, period)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	without := run(nil)
	with := run(&iobehind.BurstBufferConfig{
		Capacity:  1 << 30,
		WriteRate: 6e9, // node-local NVMe speed
		DrainRate: drain,
	})

	fmt.Println("Synchronous checkpointing, 8 ranks, 512 MiB per rank every 10 s")
	fmt.Printf("required drain rate (paper's B, sync analogue): %.0f MB/s per rank\n\n", drain/1e6)
	fmt.Printf("%-22s %12s %12s\n", "", "direct to FS", "burst buffer")
	fmt.Printf("%-22s %11.1fs %11.1fs\n", "runtime",
		without.AppTime.Seconds(), with.AppTime.Seconds())
	dw, db := without.Distribution(), with.Distribution()
	fmt.Printf("%-22s %11.1f%% %11.1f%%\n", "visible I/O", dw.VisibleIO(), db.VisibleIO())
	fmt.Printf("%-22s %11.1f%% %11.1f%%\n", "compute (I/O free)", dw.ComputeFree, db.ComputeFree)
	fmt.Println("\nWith the buffer, the synchronous bursts complete at NVMe speed and")
	fmt.Println("the shared file system only ever sees the provisioned drain rate —")
	fmt.Println("the same flattening the limiter achieves for asynchronous I/O.")
}

func runSync(bb *iobehind.BurstBufferConfig, fs iobehind.FSConfig,
	ranks, phases int, bytes int64, period iobehind.Duration) (*iobehind.Report, error) {
	sim := iobehind.NewSim(iobehind.Options{
		Ranks: ranks,
		FS:    &fs,
		Agent: iobehind.AgentConfig{BurstBuffer: bb},
	})
	return sim.Run(func(r *iobehind.Rank) {
		f := sim.IO.Open(r, fmt.Sprintf("ckpt-%d.dat", r.ID()))
		ioTime := iobehind.Duration(0)
		for j := 0; j < phases; j++ {
			before := r.Now()
			f.WriteAt(int64(j)*bytes, bytes) // synchronous checkpoint
			ioTime += r.Now().Sub(before)
			// Compute until the period boundary.
			rest := period - r.Now().Sub(before)
			if rest > 0 {
				r.Compute(rest)
			}
		}
		r.Finalize()
	})
}
