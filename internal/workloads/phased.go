package workloads

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
)

// PhasedConfig describes the generic checkpointing kernel of the paper's
// Fig. 3: alternating compute phases with one asynchronous write each,
// fenced by the matching wait at the end of the next compute phase. It is
// the minimal application our approach applies to, used by the quickstart
// example and many tests.
type PhasedConfig struct {
	// Phases is the number of compute+write rounds.
	Phases int
	// BytesPerPhase is the checkpoint size per rank per phase.
	BytesPerPhase int64
	// Compute is the compute-phase duration.
	Compute des.Duration
	// JitterFraction stretches each phase by a uniform random fraction.
	JitterFraction float64
}

// WithDefaults fills zero fields.
func (c PhasedConfig) WithDefaults() PhasedConfig {
	if c.Phases <= 0 {
		c.Phases = 10
	}
	if c.BytesPerPhase <= 0 {
		c.BytesPerPhase = 64 << 20
	}
	if c.Compute <= 0 {
		c.Compute = des.Second
	}
	return c
}

// PhasedMain returns the per-rank main of the generic kernel.
func PhasedMain(sys *mpiio.System, cfg PhasedConfig) func(*mpi.Rank) {
	cfg = cfg.WithDefaults()
	return func(r *mpi.Rank) {
		f := sys.Open(r, fmt.Sprintf("ckpt-%06d.dat", r.ID()))
		var req *mpiio.Request
		for j := 0; j < cfg.Phases; j++ {
			d := cfg.Compute
			if cfg.JitterFraction > 0 {
				d += r.Jitter(des.Duration(float64(d) * cfg.JitterFraction))
			}
			r.Compute(d)
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(int64(j)*cfg.BytesPerPhase, cfg.BytesPerPhase)
		}
		if req != nil {
			req.Wait()
		}
		r.Finalize()
	}
}
