package workloads

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
)

// WacommConfig parameterizes the WaComM++ model. WaComM++ simulates
// pollutant transport with a Lagrangian particle model: for every simulated
// hour, rank 0 distributes the particles over the MPI ranks (hierarchical
// master/worker parallelization), each rank moves its share, and — in the
// paper's modified version — the per-iteration particle results are written
// asynchronously, overlapping the next iteration's computation. The final
// result files are still written synchronously, and rank 0 reads the
// initial particle restart file at startup.
type WacommConfig struct {
	// Particles is the total particle count (paper: 2e6).
	Particles int64
	// Iterations is the number of simulated hours (paper: 50).
	Iterations int
	// ReadEvery makes rank 0 re-read new particles every ReadEvery
	// iterations ("in some cases, a new read operation is executed after
	// every hour"). 0 disables.
	ReadEvery int
	// JitterFraction stretches each rank's compute by a uniform random
	// fraction. Default 0.05.
	JitterFraction float64
}

// The fixed parameters of the WaComM++ model.
const (
	// wacommBytesPerParticle sizes the I/O.
	wacommBytesPerParticle int64 = 48
	// wacommPerParticleCost is the Lagrangian step per particle,
	// calibrated to ≈0.6 s iterations at 96 ranks (Fig. 8).
	wacommPerParticleCost des.Duration = 27500 // 27.5 µs
	// wacommDistributionPerRank is rank 0's serial per-rank cost to
	// scatter particles and gather results each hour; it dominates large
	// runs (≈2.3 s iterations at 9216 ranks, Fig. 10).
	wacommDistributionPerRank des.Duration = 225 * des.Microsecond
	// wacommFixedIteration is the per-iteration fixed overhead (model
	// setup, OpenMP fork/join).
	wacommFixedIteration des.Duration = 20 * des.Millisecond
	// wacommFinalWriteFactor scales the synchronous result files written
	// at the end, relative to one iteration's data (several files).
	wacommFinalWriteFactor float64 = 3
)

// WithDefaults fills zero fields.
func (c WacommConfig) WithDefaults() WacommConfig {
	if c.Particles <= 0 {
		c.Particles = 2_000_000
	}
	if c.Iterations <= 0 {
		c.Iterations = 50
	}
	if c.JitterFraction < 0 {
		c.JitterFraction = 0
	} else if c.JitterFraction == 0 {
		c.JitterFraction = 0.05
	}
	return c
}

// TotalBytes returns the total particle payload per iteration.
func (c WacommConfig) TotalBytes() int64 {
	d := c.WithDefaults()
	return d.Particles * wacommBytesPerParticle
}

// BytesPerRank returns the per-rank write size per iteration for n ranks.
func (c WacommConfig) BytesPerRank(n int) int64 {
	b := c.TotalBytes() / int64(n)
	if b < 1 {
		b = 1
	}
	return b
}

// IterationDuration returns the modelled iteration length for n ranks,
// before jitter: particle work (parallel) + rank 0's serial per-rank
// distribution cost + fixed overhead.
func (c WacommConfig) IterationDuration(n int) des.Duration {
	d := c.WithDefaults()
	particleWork := des.Duration(d.Particles / int64(n) * int64(wacommPerParticleCost))
	distribution := des.Duration(int64(n) * int64(wacommDistributionPerRank))
	return particleWork + distribution + wacommFixedIteration
}

// WacommMain returns the per-rank main of the modified WaComM++: the
// iteration-i particle write overlaps the iteration-i+1 computation, with
// the matching wait right before the next write is issued.
func WacommMain(sys *mpiio.System, cfg WacommConfig) func(*mpi.Rank) {
	cfg = cfg.WithDefaults()
	return func(r *mpi.Rank) {
		n := r.World().Size()
		perRank := cfg.BytesPerRank(n)
		iter := cfg.IterationDuration(n)
		f := sys.Open(r, fmt.Sprintf("wacomm-%06d.nc", r.ID()))

		// Rank 0 reads the initial particle restart file synchronously.
		if r.ID() == 0 {
			f.ReadAt(0, cfg.TotalBytes())
		}
		r.Barrier() // everyone waits for the particle distribution

		var req *mpiio.Request
		for it := 0; it < cfg.Iterations; it++ {
			if cfg.ReadEvery > 0 && it > 0 && it%cfg.ReadEvery == 0 && r.ID() == 0 {
				// New particles arrive: rank 0 reads them in.
				f.ReadAt(0, cfg.TotalBytes()/8)
			}
			// Hourly synchronization: the master redistributes particles.
			r.Barrier()

			// The Lagrangian transport step, with per-rank jitter.
			d := iter
			if cfg.JitterFraction > 0 {
				d += r.Jitter(des.Duration(float64(iter) * cfg.JitterFraction))
			}
			r.Compute(d)

			// Fence the previous iteration's write, then issue this
			// iteration's asynchronously: it overlaps the next hour.
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(int64(it)*perRank, perRank)
		}
		if req != nil {
			req.Wait()
		}

		// The last result files have no compute left to hide behind: they
		// are written synchronously, as in the original code.
		f.WriteAt(0, int64(float64(perRank)*wacommFinalWriteFactor))
		r.Finalize()
	}
}
