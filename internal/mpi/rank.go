package mpi

import (
	"iobehind/internal/des"
)

// Rank is one MPI process. All methods must be called from the rank's own
// goroutine (inside the function passed to Launch/Run), mirroring how MPI
// calls are made from the owning process.
type Rank struct {
	w       *World
	id      int
	proc    *des.Proc
	started des.Time
	ended   des.Time

	// penalty is pending interference: virtual seconds of compute slowdown
	// charged by this rank's background I/O activity and drained at the
	// next Compute call.
	penalty float64

	// computeTime accumulates time spent in Compute (including drained
	// interference penalties).
	computeTime des.Duration

	finalized bool
}

// ID returns the rank number in [0, world size).
func (r *Rank) ID() int { return r.id }

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.w }

// Proc returns the underlying simulation process.
func (r *Rank) Proc() *des.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() des.Time { return r.proc.Now() }

// Started and Ended return the rank's main function lifetime (Ended is
// zero while running).
func (r *Rank) Started() des.Time { return r.started }
func (r *Rank) Ended() des.Time   { return r.ended }

// ComputeTime returns the accumulated time spent in Compute.
func (r *Rank) ComputeTime() des.Duration { return r.computeTime }

// Compute models a computational phase of duration d. Interference charged
// by background I/O (AddInterference) extends the phase: the drain loop
// keeps absorbing penalties that arrive while the extension itself runs.
func (r *Rank) Compute(d des.Duration) {
	t0 := r.proc.Now()
	r.proc.Sleep(d)
	for r.penalty > 1e-9 {
		p := r.penalty
		r.penalty = 0
		r.proc.Sleep(des.DurationOf(p))
	}
	r.computeTime += r.proc.Now().Sub(t0)
}

// AddInterference charges seconds of compute slowdown to this rank. The
// I/O agent calls it when an unpaced request costs a scheduling hiccup,
// and may do so from function events, not only processes.
func (r *Rank) AddInterference(seconds float64) {
	if seconds > 0 {
		r.penalty += seconds
	}
}

// Sleep suspends the rank without counting the time as compute.
func (r *Rank) Sleep(d des.Duration) { r.proc.Sleep(d) }

// Finalize runs the registered finalize hooks (MPI_Finalize). Call it at
// the end of the rank's main function; calling twice panics.
func (r *Rank) Finalize() {
	if r.finalized {
		panic("mpi: rank finalized twice")
	}
	r.finalized = true
	for _, fn := range r.w.finHooks {
		fn(r)
	}
}

// Jitter returns a uniformly distributed duration in [0, max), drawn from
// the engine PRNG. Workloads use it to de-synchronize otherwise identical
// ranks, like OS noise does on a real machine.
func (r *Rank) Jitter(max des.Duration) des.Duration {
	if max <= 0 {
		return 0
	}
	return des.Duration(r.w.e.Rand().Int63n(int64(max)))
}
