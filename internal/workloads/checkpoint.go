package workloads

import (
	"fmt"
	"math"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
)

// CheckpointConfig models the canonical fault-tolerant HPC pattern behind
// the paper's motivation ("dominating write I/O operations (e.g.,
// checkpointing) occurring in bursts synchronously across several
// processes"): a long computation checkpoints every Interval; failures
// strike with exponential inter-arrival times and throw the job back to
// its last completed checkpoint.
//
// The configuration contrasts synchronous checkpoints (their cost lands
// directly on the critical path, so the Young/Daly optimum applies) with
// asynchronous ones (cost hidden behind the next segment — and, throttled
// to the required bandwidth, hidden from the file system too).
type CheckpointConfig struct {
	// ComputeTotal is the useful work to finish, per rank, in lockstep.
	ComputeTotal des.Duration
	// Interval is the checkpoint period. Use YoungInterval for the
	// classical optimum.
	Interval des.Duration
	// CheckpointBytes is the per-rank checkpoint size. Default 256 MiB.
	CheckpointBytes int64
	// Async overlaps each checkpoint write with the next segment.
	Async bool
	// MTBF is the job's mean time between failures (exponential); 0
	// disables failures.
	MTBF des.Duration
	// RestartRead re-reads the last checkpoint after a failure.
	RestartRead bool
}

// ckptRestartCost is the fixed re-initialization time after a failure.
const ckptRestartCost des.Duration = 10 * des.Second

// WithDefaults fills zero fields.
func (c CheckpointConfig) WithDefaults() CheckpointConfig {
	if c.ComputeTotal <= 0 {
		c.ComputeTotal = 10 * des.Minute
	}
	if c.Interval <= 0 {
		c.Interval = des.Minute
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 256 << 20
	}
	return c
}

// YoungInterval returns Young's first-order optimal checkpoint interval
// √(2·MTBF·checkpointCost) — the sweet spot between checkpoint overhead
// (short intervals) and lost work (long intervals). Asynchronous
// checkpointing shrinks the *visible* checkpoint cost toward zero, pushing
// the optimal interval down and the failure waste with it.
func YoungInterval(mtbf, checkpointCost des.Duration) des.Duration {
	if mtbf <= 0 || checkpointCost <= 0 {
		return 0
	}
	return des.DurationOf(math.Sqrt(2 * mtbf.Seconds() * checkpointCost.Seconds()))
}

// ckptController coordinates failures across the ranks of one run: the
// failure decision for each segment attempt is sampled once (memoized on
// first access) so every rank observes the same fault schedule no matter
// the engine's interleaving.
type ckptController struct {
	w        *mpi.World
	mtbf     des.Duration
	failures int
	verdicts map[int]ckptVerdict
}

type ckptVerdict struct {
	fails bool
	waste float64 // fraction of the segment computed before the crash
}

func (c *ckptController) attempt(idx int, segTime des.Duration) ckptVerdict {
	if v, ok := c.verdicts[idx]; ok {
		return v
	}
	v := ckptVerdict{}
	if c.mtbf > 0 {
		rng := c.w.Engine().Rand()
		p := 1 - math.Exp(-segTime.Seconds()/c.mtbf.Seconds())
		if rng.Float64() < p {
			v = ckptVerdict{fails: true, waste: rng.Float64()}
		}
	}
	c.verdicts[idx] = v
	if v.fails {
		c.failures++
	}
	return v
}

// CheckpointMain returns the per-rank main of the checkpoint/restart
// pattern. Failures hit all ranks together (a node loss kills the whole
// MPI job); the failed segment's partial compute is wasted, the restart
// cost is paid, the last checkpoint is optionally re-read, and the segment
// is retried.
func CheckpointMain(sys *mpiio.System, cfg CheckpointConfig) func(*mpi.Rank) {
	main, _ := CheckpointMainWithProbe(sys, cfg)
	return main
}

// CheckpointProbe exposes the injected fault schedule of one
// CheckpointMainWithProbe run, for tests and reporting.
type CheckpointProbe struct{ ctl *ckptController }

// Failures returns the number of injected failures so far.
func (p CheckpointProbe) Failures() int { return p.ctl.failures }

// CheckpointMainWithProbe is CheckpointMain plus a probe for inspecting
// the injected fault schedule.
func CheckpointMainWithProbe(sys *mpiio.System, cfg CheckpointConfig) (func(*mpi.Rank), CheckpointProbe) {
	cfg = cfg.WithDefaults()
	ctl := &ckptController{
		w:        sys.World(),
		mtbf:     cfg.MTBF,
		verdicts: make(map[int]ckptVerdict),
	}
	main := checkpointMainWith(sys, cfg, ctl)
	return main, CheckpointProbe{ctl: ctl}
}

// checkpointMainWith is the shared body of CheckpointMain and
// CheckpointMainWithProbe.
func checkpointMainWith(sys *mpiio.System, cfg CheckpointConfig, ctl *ckptController) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		f := sys.Open(r, fmt.Sprintf("ckpt-%06d.dat", r.ID()))
		remaining := cfg.ComputeTotal
		var pending *mpiio.Request
		attempt := 0
		for remaining > 0 {
			r.Barrier()
			segTime := cfg.Interval
			if segTime > remaining {
				segTime = remaining
			}
			v := ctl.attempt(attempt, segTime)
			attempt++
			if v.fails {
				if pending != nil {
					pending.Wait()
					pending = nil
				}
				r.Compute(des.Duration(float64(segTime) * v.waste))
				r.Sleep(ckptRestartCost)
				if cfg.RestartRead {
					f.ReadAt(0, cfg.CheckpointBytes)
				}
				continue
			}
			r.Compute(segTime)
			if pending != nil {
				pending.Wait()
				pending = nil
			}
			if cfg.Async {
				pending = f.IwriteAt(0, cfg.CheckpointBytes)
			} else {
				f.WriteAt(0, cfg.CheckpointBytes)
			}
			remaining -= segTime
		}
		if pending != nil {
			pending.Wait()
		}
		r.Finalize()
	}
}
