// Package workloads models the two applications of the paper's evaluation:
// the modified HACC-IO benchmark (Sec. VI-B, Fig. 12) and the WaComM++
// pollutant-transport kernel (Sec. VI-A), plus a generic phased I/O kernel
// for examples and tests. The models reproduce the applications' phase
// structure — which is what the paper's metrics measure — with calibrated
// durations.
package workloads

import (
	"fmt"
	"math"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
)

// HaccConfig parameterizes the modified HACC-IO benchmark. The vanilla
// benchmark fills per-rank particle arrays, writes them with individual
// file pointers to distinct files, reads them back and verifies. The
// paper's modification (Fig. 12) wraps compute/write/read/verify in a loop
// and makes the data I/O asynchronous: the write overlaps the verify block
// and the read overlaps the next loop's compute block, with MPI_Wait
// fences at the block ends and a memcpy before the write's wait.
type HaccConfig struct {
	// Loops is the number of compute/write/read/verify rounds (paper: 10).
	Loops int
	// ParticlesPerRank scales the per-rank arrays. 38 bytes per particle
	// (the nine HACC-IO variables). Default 5.5e6, calibrated so the
	// 1-rank required bandwidth lands at the paper's ≈0.7 GB/s.
	ParticlesPerRank int64
	// VerifyFactor scales the verify block relative to compute. Default 1:
	// the verify block re-reads and compares the full arrays, costing
	// about as much as filling them. Symmetric blocks also give the write
	// and read phases matching required bandwidths, which keeps the
	// alternating limiter stable — the paper reports near-zero waiting for
	// all strategies.
	VerifyFactor float64
	// FixedPhase overrides the grown compute duration when positive:
	// scale-independent phases, used for the Fig. 13/14 time-series
	// runs, whose x-axes show ~10 s loops.
	FixedPhase des.Duration
	// JitterFraction de-synchronizes ranks: each block is stretched by a
	// uniform random fraction in [0, JitterFraction). Default 0.03.
	JitterFraction float64
}

// The fixed parameters of the HACC-IO model.
const (
	// haccBytesPerParticle is the size of one particle's nine HACC-IO
	// variables.
	haccBytesPerParticle int64 = 38
	// haccHeaderBytes is the synchronous metadata header write.
	haccHeaderBytes int64 = 4096
	// haccComputeBase is the compute-block duration at 1 rank.
	haccComputeBase des.Duration = 300 * des.Millisecond
	// haccPhaseGrowthExp makes phases grow as ranks^exp, the empirical
	// fit to the paper's reported phase lengths (0.6 s at 1 rank → 105 s
	// at 9216, attributed to the global broadcasts added "for more
	// variability"). FixedPhase overrides the grown duration.
	haccPhaseGrowthExp float64 = 0.565
	// haccBcastBytes is the payload of the per-block global broadcast.
	haccBcastBytes int64 = 8
	// haccMemcpyRate models the data copy before the write's wait, in
	// bytes/s.
	haccMemcpyRate float64 = 10e9
)

// WithDefaults fills zero fields.
func (c HaccConfig) WithDefaults() HaccConfig {
	if c.Loops <= 0 {
		c.Loops = 10
	}
	if c.ParticlesPerRank <= 0 {
		c.ParticlesPerRank = 5_500_000
	}
	if c.VerifyFactor <= 0 {
		c.VerifyFactor = 1
	}
	if c.JitterFraction < 0 {
		c.JitterFraction = 0
	} else if c.JitterFraction == 0 {
		c.JitterFraction = 0.03
	}
	return c
}

// DataBytes returns the per-rank array size written and read each loop.
func (c HaccConfig) DataBytes() int64 {
	d := c.WithDefaults()
	return d.ParticlesPerRank * haccBytesPerParticle
}

// ComputeDuration returns the compute-block length for a world of n ranks.
func (c HaccConfig) ComputeDuration(n int) des.Duration {
	d := c.WithDefaults()
	if d.FixedPhase > 0 {
		return d.FixedPhase
	}
	return des.DurationOf(haccComputeBase.Seconds() * math.Pow(float64(n), haccPhaseGrowthExp))
}

// VerifyDuration returns the verify-block length for n ranks.
func (c HaccConfig) VerifyDuration(n int) des.Duration {
	d := c.WithDefaults()
	return des.DurationOf(d.ComputeDuration(n).Seconds() * d.VerifyFactor)
}

// HaccMain returns the per-rank main function of the modified HACC-IO
// benchmark, following Fig. 12:
//
//	loop {
//	    compute (fill arrays, bcast)   | previous read in background
//	    wait(read)
//	    write header (sync), iwrite data
//	    verify (compare, bcast, memcpy)| write in background
//	    wait(write)
//	    iread data                     | overlaps next compute
//	}
func HaccMain(sys *mpiio.System, cfg HaccConfig) func(*mpi.Rank) {
	cfg = cfg.WithDefaults()
	return func(r *mpi.Rank) {
		n := r.World().Size()
		dataBytes := cfg.DataBytes()
		compute := cfg.ComputeDuration(n)
		verify := cfg.VerifyDuration(n)
		memcpyDur := des.DurationOf(float64(dataBytes) / haccMemcpyRate)
		f := sys.Open(r, fmt.Sprintf("hacc-%06d.bin", r.ID()))

		jitter := func(d des.Duration) des.Duration {
			if cfg.JitterFraction <= 0 {
				return d
			}
			max := des.Duration(float64(d) * cfg.JitterFraction)
			return d + r.Jitter(max)
		}

		var readReq *mpiio.Request
		for loop := 0; loop < cfg.Loops; loop++ {
			// Compute block: fill the arrays; the previous loop's read
			// proceeds in the background.
			r.Compute(jitter(compute))
			r.Bcast(0, haccBcastBytes)
			if readReq != nil {
				readReq.Wait()
				readReq = nil
			}

			// Header (metadata) is written synchronously, then the data
			// write is issued asynchronously over the verify block.
			f.WriteAt(0, haccHeaderBytes)
			writeReq := f.IwriteAt(int64(loop)*dataBytes, dataBytes)

			// Verify block: compare the previous data, broadcast, and
			// memcpy the fresh arrays aside just before the write fence.
			r.Compute(jitter(verify))
			r.Bcast(0, haccBcastBytes)
			r.Compute(memcpyDur)
			writeReq.Wait()

			// Read back asynchronously; it overlaps the next compute.
			readReq = f.IreadAt(int64(loop)*dataBytes, dataBytes)
		}
		// The last read-back still has a verify block to compare against,
		// so it too completes behind the scenes.
		if readReq != nil {
			r.Compute(jitter(verify))
			readReq.Wait()
		}
		r.Finalize()
	}
}
