// Package tmio reimplements the paper's TMIO (Tracing MPI-IO) library on
// the simulated MPI stack: it intercepts MPI-IO calls and matching waits,
// measures the required bandwidth B_ij and throughput T_ij of every rank
// and phase, drives the bandwidth-limiting strategies, and aggregates
// rank-level metrics into the application-level series B, B_L, and T.
//
// Attach installs the tracer the way LD_PRELOAD installs TMIO: the
// application code is unchanged; every interception costs a small
// peri-runtime overhead, and the MPI_Finalize hook models the
// post-runtime aggregation the paper separates out in Fig. 6.
package tmio

import (
	"fmt"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
)

// PhaseEndRule selects when a multi-request I/O phase's required-bandwidth
// window ends (paper Sec. IV-A).
type PhaseEndRule int

const (
	// FirstWait ends the phase when the first request in the queue reaches
	// its matching wait. The paper's default: yields higher (safer)
	// bandwidth requirements.
	FirstWait PhaseEndRule = iota
	// LastWait ends the phase when the last request in the queue reaches
	// its matching wait.
	LastWait
)

// Aggregation selects how per-request bandwidths combine into B_ij.
type Aggregation int

const (
	// Sum adds the per-request bandwidths (the paper's choice: higher B).
	Sum Aggregation = iota
	// Average takes their mean.
	Average
)

// The tracing cost the tracer charges to the application, mirroring
// TMIO's measured overheads (Config.DisableOverhead waives all of it).
const (
	// perCallOverhead is charged at every intercepted call (peri-runtime).
	perCallOverhead des.Duration = 300 * des.Nanosecond
	// finalizeBase is the fixed post-runtime cost on the root rank.
	finalizeBase des.Duration = 5 * des.Millisecond
	// finalizePerRank is the root's per-rank aggregation cost; this is
	// what makes the post-runtime overhead grow with the rank count
	// (Fig. 6).
	finalizePerRank des.Duration = 150 * des.Microsecond
	// payloadPerRank is the metric payload gathered from each rank and
	// then written out by the root.
	payloadPerRank int64 = 4096
)

// minWindow is the smallest usable required-bandwidth window. A request
// whose matching wait arrives sooner (e.g. the application's final
// request, waited immediately after submission) provides no meaningful
// requirement — the window only measures interception overhead — and is
// excluded from B_ij.
const minWindow des.Duration = des.Millisecond

// Config configures a tracer.
type Config struct {
	// PhaseEnd defaults to FirstWait.
	PhaseEnd PhaseEndRule
	// Aggregation defaults to Sum.
	Aggregation Aggregation
	// DisableOverhead traces at zero simulated cost instead of charging
	// the overheads above.
	DisableOverhead bool
	// UniformLimit applies the application-level aggregate instead of each
	// rank's own measurement: every rank is capped at tol × (Σ_i B_i)/n,
	// the alternative Sec. IV-B sketches ("aggregating B_ij over all
	// involved ranks and calculating an application-level metric") before
	// settling on per-rank limits. Under imbalance the uniform cap starves
	// the hungry ranks — the reason the paper keeps limits per rank.
	UniformLimit bool
	// PerClassLimits derives and applies limits separately for read and
	// write phases. The paper's single limit oscillates when an
	// application alternates classes with different requirements (the
	// modified HACC-IO's write window is the verify block, its read
	// window the longer compute block); per-class limits keep the two
	// control loops independent.
	PerClassLimits bool
	// FaultOracle, when non-nil, reports whether a fault window overlapped
	// [from, to) on the class (internal/faults.Injector.Overlaps fits).
	// A phase measured inside a fault window is tainted: it is recorded
	// and emitted (with its Faulty mark) but neither derives a limit nor
	// enters the limiter's trend history — degraded measurements must not
	// poison the control loop, and the pre-fault limit survives until the
	// first clean phase re-derives a fresh one. Runtime wiring, not
	// configuration: excluded from cache keys.
	FaultOracle func(class pfs.Class, from, to des.Time) bool `json:"-"`
}

// Tracer observes one world's MPI-IO traffic and applies the limiting
// strategy. Create it with Attach before launching the world.
type Tracer struct {
	sys     *mpiio.System
	strat   StrategyConfig
	cfg     Config
	ranks   []*rankTracer
	sink    Sink
	sinkErr error

	// Uniform-limit bookkeeping: running sum of the ranks' latest B.
	uniformSum   float64
	uniformCount int
}

// Attach installs a tracer on the system (the LD_PRELOAD moment). It
// registers the MPI-IO interceptor and the MPI_Finalize hook. strat
// drives the bandwidth limiting; its None strategy only traces.
func Attach(sys *mpiio.System, strat StrategyConfig, cfg Config) *Tracer {
	strat = strat.WithDefaults()
	t := &Tracer{sys: sys, strat: strat, cfg: cfg}
	for _, r := range sys.World().Ranks() {
		loop := newLimiter(strat)
		t.ranks = append(t.ranks, &rankTracer{t: t, rank: r, loops: [2]limiter{loop, loop}})
	}
	sys.SetInterceptor(t)
	sys.World().AddFinalizeHook(t.finalize)
	return t
}

// rankTracer is the per-rank bookkeeping: the bandwidth/throughput
// monitoring queues and the accumulated accounting.
type rankTracer struct {
	t    *Tracer
	rank *mpi.Rank

	// open is the current phase's request queue.
	open   []pendingReq
	phases []phaseRecord
	// loops are the rank's control loops: loops[0] serves every phase,
	// or loops[class] the phases of that class under PerClassLimits, so
	// read and write measurements never mix. latest is the loop that saw
	// the rank's most recent clean B (nil before the first).
	loops  [2]limiter
	latest *limiter
	// uniformB is this rank's latest contribution to the uniform sum.
	uniformB float64

	firstLimitAt des.Time
	limitApplied bool

	// Accounting.
	waits        metrics.Intervals
	waitTotal    [2]des.Duration
	syncTotal    [2]des.Duration
	syncBytes    [2]int64
	syncOps      int
	asyncOps     int
	peri         des.Duration
	post         des.Duration
	curWaitFrom  des.Time
	curWaitClass pfs.Class
}

type pendingReq struct {
	req    *mpiio.Request
	ts     des.Time
	waited bool
}

// phaseRecord is one closed I/O phase of one rank.
type phaseRecord struct {
	index    int
	ts, te   des.Time // required-bandwidth window
	b        float64  // B_ij
	bl       float64  // the scaled value (limit derived from this phase)
	limited  bool
	faulty   bool // measured inside a fault window; excluded from feedback
	retries  int  // transient-error retries summed over the phase's requests
	requests []*mpiio.Request
}

// charge applies the peri-runtime per-call overhead.
func (rt *rankTracer) charge() {
	if rt.t.cfg.DisableOverhead {
		return
	}
	rt.rank.Proc().Sleep(perCallOverhead)
	rt.peri += perCallOverhead
}

// AsyncSubmitted implements mpiio.Interceptor.
func (t *Tracer) AsyncSubmitted(r *mpi.Rank, req *mpiio.Request) {
	rt := t.ranks[r.ID()]
	rt.charge()
	rt.asyncOps++
	rt.open = append(rt.open, pendingReq{req: req, ts: req.SubmittedAt()})
}

// WaitBegin implements mpiio.Interceptor.
func (t *Tracer) WaitBegin(r *mpi.Rank, req *mpiio.Request) {
	rt := t.ranks[r.ID()]
	rt.charge()
	rt.curWaitFrom = r.Now()
	rt.curWaitClass = req.Class()

	// Mark the request waited and decide whether the phase closes.
	idx := -1
	for i := range rt.open {
		if rt.open[i].req == req {
			rt.open[i].waited = true
			idx = i
			break
		}
	}
	if idx < 0 {
		return // wait for a request of an already-closed phase
	}
	switch t.cfg.PhaseEnd {
	case FirstWait:
		if idx == 0 {
			rt.closePhase(r.Now(), true)
		}
	case LastWait:
		all := true
		for i := range rt.open {
			if !rt.open[i].waited {
				all = false
				break
			}
		}
		if all {
			rt.closePhase(r.Now(), true)
		}
	}
}

// WaitEnd implements mpiio.Interceptor.
func (t *Tracer) WaitEnd(r *mpi.Rank, req *mpiio.Request) {
	rt := t.ranks[r.ID()]
	iv := metrics.Interval{Start: rt.curWaitFrom, End: r.Now()}
	rt.waits.Add(iv)
	rt.waitTotal[req.Class()] += iv.Duration()
}

// SyncBegin implements mpiio.Interceptor.
func (t *Tracer) SyncBegin(r *mpi.Rank, op mpiio.Op) {
	rt := t.ranks[r.ID()]
	rt.charge()
}

// SyncEnd implements mpiio.Interceptor.
func (t *Tracer) SyncEnd(r *mpi.Rank, op mpiio.Op, start, end des.Time) {
	rt := t.ranks[r.ID()]
	rt.syncOps++
	rt.syncTotal[op.Class] += end.Sub(start)
	rt.syncBytes[op.Class] += op.Bytes
}

// closePhase computes B_ij over the open queue, derives and applies the
// next limit (when applyLimit is set and the strategy limits), and records
// the phase.
func (rt *rankTracer) closePhase(te des.Time, applyLimit bool) {
	if len(rt.open) == 0 {
		return
	}
	ts := rt.open[0].ts
	b := 0.0
	reqs := make([]*mpiio.Request, 0, len(rt.open))
	for _, p := range rt.open {
		reqs = append(reqs, p.req)
		window := te.Sub(p.ts)
		if window < minWindow {
			continue
		}
		b += float64(p.req.Bytes()) / window.Seconds()
	}
	if rt.t.cfg.Aggregation == Average && len(rt.open) > 0 {
		b /= float64(len(rt.open))
	}

	class := pfs.Write
	if len(reqs) > 0 {
		class = reqs[0].Class()
	}
	rec := phaseRecord{
		index:    len(rt.phases),
		ts:       ts,
		te:       te,
		b:        b,
		requests: reqs,
	}
	for _, q := range reqs {
		rec.retries += q.Stats().Retries
	}
	// A degenerate window (the wait was reached immediately, e.g. the
	// application's very last request) measures nothing: the required
	// bandwidth is unbounded, not zero, so no new limit is derived.
	if b <= 0 {
		applyLimit = false
	}
	// A phase overlapping a fault window measured degraded hardware, not
	// the application's requirement: record it, but derive no limit from
	// it and keep it out of the trend history, so the first clean phase
	// recovers the control loop.
	if rt.t.cfg.FaultOracle != nil && b > 0 && rt.t.cfg.FaultOracle(class, ts, te) {
		rec.faulty = true
		applyLimit = false
	}
	loop := &rt.loops[0]
	if rt.t.cfg.PerClassLimits {
		loop = &rt.loops[class]
	}
	if applyLimit && rt.t.strat.Limits() {
		next := loop.next(b)
		if rt.t.cfg.UniformLimit {
			next = rt.t.uniformLimit(rt, b)
		}
		loop.limit = next
		rec.bl = next
		rec.limited = true
		if rt.t.cfg.PerClassLimits {
			rt.t.sys.Agent(rt.rank.ID()).SetClassLimit(class, next)
		} else {
			rt.t.sys.Agent(rt.rank.ID()).SetLimit(next)
		}
		if !rt.limitApplied {
			rt.limitApplied = true
			rt.firstLimitAt = te
		}
	}
	if b > 0 && !rec.faulty {
		loop.lastB = b
		rt.latest = loop
	}
	rt.phases = append(rt.phases, rec)
	rt.open = rt.open[:0]
	rt.t.emitPhase(rt.rank.ID(), rec)
}

// uniformLimit records the rank's latest measurement and returns the
// uniform per-rank cap: tol × mean of the latest B across ranks that have
// measured anything yet.
func (t *Tracer) uniformLimit(rt *rankTracer, b float64) float64 {
	if rt.uniformB == 0 {
		t.uniformCount++
	}
	t.uniformSum += b - rt.uniformB
	rt.uniformB = b
	return t.strat.Tol * t.uniformSum / float64(t.uniformCount)
}

// finalize is the MPI_Finalize hook: the post-runtime aggregation. Every
// rank contributes its payload to a gather; the root then pays a per-rank
// aggregation cost and writes the combined report to the file system.
func (t *Tracer) finalize(r *mpi.Rank) {
	rt := t.ranks[r.ID()]
	// A phase left open (its head never waited) closes at finalize time
	// without applying a limit — there is no next phase to limit.
	if len(rt.open) > 0 {
		rt.closePhase(r.Now(), false)
	}
	if t.cfg.DisableOverhead {
		return
	}
	start := r.Now()
	r.Gather(0, payloadPerRank)
	if r.ID() == 0 {
		n := r.World().Size()
		r.Sleep(finalizeBase + des.Duration(n)*finalizePerRank)
		t.sys.FS().Transfer(r.Proc(), pfs.Write,
			int64(n)*payloadPerRank, pfs.Tag{Job: -1, Rank: -1})
	}
	rt.post = r.Now().Sub(start)
}

// Limit returns the limit currently applied to rank (pfs.Unlimited if
// none); under PerClassLimits, the write limit.
func (t *Tracer) Limit(rank int) float64 { return t.ranks[rank].loops[pfs.Write].limit }

// RequiredBandwidth returns the rank's most recently measured required
// bandwidth B_ij in bytes/s, of either class (0 before the first phase
// closes). External controllers — e.g. a cluster-level contention
// monitor — use it to limit an application to exactly what it needs.
func (t *Tracer) RequiredBandwidth(rank int) float64 {
	rt := t.ranks[rank]
	if rt.latest == nil {
		return 0
	}
	return rt.latest.lastB
}

// Phases returns the number of closed phases recorded for rank.
func (t *Tracer) Phases(rank int) int { return len(t.ranks[rank].phases) }

func (t *Tracer) String() string {
	return fmt.Sprintf("tmio.Tracer{ranks: %d, strategy: %s}",
		len(t.ranks), t.strat.Label())
}
