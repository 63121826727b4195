// Package adio models ROMIO's ADIO layer as modified by the paper: every
// MPI-IO read and write is redirected through a per-rank I/O agent (the
// "I/O thread" of Sec. V) that executes the operation synchronously
// against the file system, notifies completion through a generalized
// request, and enforces a user-settable bandwidth limit.
//
// The thread reacts to only three things: a submitted request, a finished
// sub-request and the end of a sleep. So the agent is not a simulation
// process but a state machine on the engine loop: where the thread would
// block, the agent schedules its next step as a function event in the
// slot the thread would wake in, so every event keeps its place in the
// order.
//
// The limiter follows the paper's algorithm verbatim:
//
//  1. A request is divided into sub-requests of a predefined size; a
//     request smaller than that size is executed directly.
//  2. For every sub-request the agent computes the required time from the
//     limit: Δt = size / limit.
//  3. Each sub-request runs as a blocking transfer. If it finished faster
//     than required, the agent sleeps the remainder (Case A); if slower,
//     the overrun is accumulated and used to shorten later sleeps (Case B).
package adio

import (
	"math"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

// Host is the compute process an agent serves: the agent charges it the
// scheduling hiccups of unpaced background I/O (see HiccupProb).
type Host interface {
	// AddInterference charges seconds of compute slowdown.
	AddInterference(seconds float64)
}

// Config parameterizes an I/O agent.
type Config struct {
	// SubRequestSize is the throttling granularity in bytes. Defaults to
	// 8 MiB. Requests at or below this size are executed in one piece.
	SubRequestSize int64
	// Tag identifies this agent's flows to file-system observers.
	Tag pfs.Tag
	// CarryDeficit keeps the Case-B overrun accumulator across requests
	// instead of resetting it per request (ablation knob).
	CarryDeficit bool

	// HiccupProb and HiccupMean model the resource competition of unpaced
	// background I/O threads (Tseng et al. [33]; the paper observes the
	// effect as "less competition for resources at the beginning of the
	// phases" when throttling). Each request executed *without pacing* —
	// no limit, or a limit the file system couldn't outrun, so the agent
	// never slept — triggers, with probability HiccupProb, a scheduling
	// hiccup that charges the host an Exp(HiccupMean)-distributed compute
	// delay. Paced agents spend their time in timed sleeps and yield the
	// core, so they are exempt. At scale, per-iteration barriers amplify
	// the rare per-rank hiccups into a measurable slowdown of the
	// unthrottled run. Defaults: 0 (disabled) / 500 ms.
	HiccupProb float64
	HiccupMean des.Duration

	// BurstBuffer, when non-nil, interposes a node-local buffer tier in
	// front of the file system for writes (the paper's future-work
	// setting): writes complete at buffer speed and a background drainer
	// trickles the data to the PFS at the configured DrainRate, which
	// becomes the agent's write-bandwidth footprint on the shared system.
	// The bandwidth limit does not additionally pace buffered writes.
	// Reads bypass the buffer.
	BurstBuffer *pfs.BurstBufferConfig

	// SubmitLatencyPerFlow and QueueLatencyPerFlow model I/O-server
	// queuing under burst storms. When thousands of ranks hit the file
	// system at once, posting a request stalls the *caller* briefly
	// (SubmitLatencyPerFlow × concurrent flows, applied by the MPI-IO
	// layer on the application thread) and the request waits in the
	// server queue before its first byte moves (QueueLatencyPerFlow ×
	// concurrent flows, applied inside the agent, hidden from the
	// application). Throttled traffic keeps concurrency low and pays
	// almost nothing — this is the "pollution by short accesses" cost the
	// paper's approach avoids. Both default to 0 (disabled). Actual
	// delays are jittered by a factor of 0.5 + Exp(1).
	SubmitLatencyPerFlow des.Duration
	QueueLatencyPerFlow  des.Duration
}

const (
	// minLimit is the lowest admissible bandwidth limit in bytes/s;
	// SetLimit clamps below it so a mismeasured required bandwidth can
	// never stall the application outright. 512 B/s is low enough not
	// to interfere with the tiny per-rank request sizes of large
	// strong-scaled runs (a 9216-rank WaComM++ writes ~10 KiB per rank
	// per hour).
	minLimit = 512
	// retryMax bounds the consecutive retries of one failing sub-request
	// when a fault model reports transient I/O errors; after retryMax
	// failed retries the request is abandoned (Stats.Failed) and the
	// exhaustion counted.
	retryMax = 4
	// retryBackoffBase is the base of the exponential retry backoff on
	// the simulated clock: the n-th consecutive retry sleeps
	// retryBackoffBase × 2^(n-1), so the fourth and last sleeps 80 ms.
	retryBackoffBase = 10 * des.Millisecond
)

// StormLatency samples a queuing delay for one operation: perFlow scaled
// by the number of concurrent flows, jittered by 0.5 + Exp(1).
func StormLatency(e *des.Engine, perFlow des.Duration, flows int) des.Duration {
	if perFlow <= 0 || flows <= 0 {
		return 0
	}
	factor := 0.5 + e.Rand().ExpFloat64()
	return des.DurationOf(perFlow.Seconds() * float64(flows) * factor)
}

func (c *Config) applyDefaults() {
	if c.SubRequestSize <= 0 {
		c.SubRequestSize = 8 << 20
	}
	if c.HiccupMean <= 0 {
		c.HiccupMean = 500 * des.Millisecond
	}
}

// FaultModel is the agent's view of an active fault scenario
// (internal/faults.Injector implements it). All methods answer for the
// current virtual instant; the agent consults them per sub-request, so
// windows opening or closing mid-request take effect on the next chunk.
type FaultModel interface {
	// QueueFactor scales the storm-queue latency of the class (>= 1).
	QueueFactor(class pfs.Class) float64
	// NodeSlowdown scales one node's transfer durations (>= 1).
	NodeSlowdown(node int) float64
	// ErrorProb is the transient-failure probability per sub-request.
	ErrorProb(class pfs.Class) float64
}

// Segment is a half-open interval of virtual time during which the agent
// was actively moving bytes (throttle sleeps excluded).
type Segment struct {
	Start, End des.Time
}

// Duration returns the segment length.
func (s Segment) Duration() des.Duration { return s.End.Sub(s.Start) }

// RequestStats describes one executed I/O request; the tracing library
// reads it after completion to compute throughput and overlap metrics.
type RequestStats struct {
	Class     pfs.Class
	Async     bool
	Bytes     int64
	Submitted des.Time  // when the application issued the operation
	Start     des.Time  // when the agent began executing it
	End       des.Time  // when the last byte (and last sleep) finished
	Segments  []Segment // active transfer intervals
	Limit     float64   // the limit in force (Unlimited if none)
	SleptFor  des.Duration

	// Queued is the server-side storm-queue wait before the first byte
	// moved. It is also folded into the first segment (the queue time
	// lengthens the measured throughput window), so Δt° reconstructed
	// from the segments includes it.
	Queued des.Duration
	// Retries counts failed sub-request attempts that were retried under
	// an active fault model; BackoffSlept is the total retry backoff
	// slept on the simulated clock. Failed marks a request abandoned
	// when a chunk failed again after its fourth retry — its remaining
	// bytes were never transferred.
	Retries      int
	BackoffSlept des.Duration
	Failed       bool
}

// ActiveTransfer returns the summed duration of the active segments.
func (s *RequestStats) ActiveTransfer() des.Duration {
	var d des.Duration
	for _, seg := range s.Segments {
		d += seg.Duration()
	}
	return d
}

// Request is the handle the MPI-IO layer receives for a submitted
// operation. Completion is signalled in virtual time; Stats must only be
// read after Done reports true.
type Request struct {
	done  *des.Completion
	Stats RequestStats
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done.Done() }

// CompletedAt returns the completion time (zero while pending).
func (r *Request) CompletedAt() des.Time { return r.done.At() }

// Wait parks proc until the request completes.
func (r *Request) Wait(proc *des.Proc) { r.done.Wait(proc) }

// Agent is the per-rank I/O thread, run as engine events (see the
// package comment). It serves one request at a time, in submission order.
type Agent struct {
	e      *des.Engine
	fs     *pfs.PFS
	host   Host
	cfg    Config
	bb     *pfs.BurstBuffer
	limit  [2]float64 // per pfs.Class; both set by SetLimit
	closed bool

	// queue holds the submitted requests waiting behind the one in
	// execution. idle is set while the agent waits for a submission: the
	// next Submit wakes it.
	queue []*Request
	idle  bool

	// req is the request in execution; the fields after it are the state
	// of its sub-request loop, carried from one step to the next.
	req       *Request
	queued    des.Duration // storm-queue wait not yet folded into a segment
	remaining int64
	deficit   float64 // Case-B overrun in seconds
	failures  int     // consecutive failed attempts on the current chunk
	chunk     int64
	limited   bool
	required  float64
	start     des.Time // start of the chunk's transfer or of a buffered write

	// The steps a wait resumes at, bound once so no step allocates.
	serveFn, beginFn, transferredFn, settleFn, nextChunkFn, bufferedFn func()

	// carriedDeficit persists the Case-B accumulator across requests when
	// CarryDeficit is set.
	carriedDeficit float64

	// faults, when non-nil, is the active fault scenario.
	faults FaultModel

	// Totals for introspection and tests.
	totalBytes     [2]int64
	requestsDone   int
	hiccups        int
	retries        int
	retryExhausted int
}

// NewAgent creates an I/O agent serving host on fs. The agent starts
// serving at the current instant, in the slot a process spawned now
// would start in: a request submitted before then starts there.
func NewAgent(e *des.Engine, fs *pfs.PFS, host Host, cfg Config) *Agent {
	a := newAgent(e, fs, host, cfg)
	e.Schedule(e.Now(), des.PrioNormal, a.serveFn)
	return a
}

// newAgent builds an agent, and its burst buffer if configured, without
// scheduling its first activation.
func newAgent(e *des.Engine, fs *pfs.PFS, host Host, cfg Config) *Agent {
	cfg.applyDefaults()
	a := &Agent{
		e:     e,
		fs:    fs,
		host:  host,
		cfg:   cfg,
		limit: [2]float64{pfs.Unlimited, pfs.Unlimited},
	}
	if cfg.BurstBuffer != nil {
		a.bb = pfs.NewBurstBuffer(e, fs, *cfg.BurstBuffer, cfg.Tag)
	}
	a.serveFn = a.serve
	a.beginFn = a.begin
	a.transferredFn = a.transferred
	a.settleFn = a.settle
	a.nextChunkFn = a.nextChunk
	a.bufferedFn = a.buffered
	return a
}

// BurstBuffer returns the agent's buffer tier, or nil.
func (a *Agent) BurstBuffer() *pfs.BurstBuffer { return a.bb }

// SetFaults installs (or removes, with nil) the fault model the agent
// consults per sub-request.
func (a *Agent) SetFaults(m FaultModel) { a.faults = m }

// Limit returns the write-class bandwidth limit currently in force
// (Unlimited if none). Reads may carry a different limit; see ClassLimit.
func (a *Agent) Limit() float64 { return a.limit[pfs.Write] }

// ClassLimit returns the limit in force for one operation class.
func (a *Agent) ClassLimit(class pfs.Class) float64 { return a.limit[class] }

// SetLimit installs a bandwidth limit in bytes/s for both classes,
// clamped to 512 B/s. Pass pfs.Unlimited to remove the limit. This is
// the user-level control the paper exposes; TMIO calls it after every
// wait with the strategy's next-phase value.
func (a *Agent) SetLimit(limit float64) {
	a.SetClassLimit(pfs.Write, limit)
	a.SetClassLimit(pfs.Read, limit)
}

// SetClassLimit installs a limit for one class only. Applications whose
// read and write phases have very different requirements (the modified
// HACC-IO alternates them every half-loop) avoid limiter oscillation by
// keeping the classes independent; TMIO's PerClassLimits option uses this.
func (a *Agent) SetClassLimit(class pfs.Class, limit float64) {
	if math.IsInf(limit, 1) {
		a.limit[class] = pfs.Unlimited
		return
	}
	if limit < minLimit {
		limit = minLimit
	}
	a.limit[class] = limit
}

// Submit enqueues an operation and returns its request handle immediately.
// The agent starts executing it as soon as it is idle (our implementation,
// like the paper's, begins the I/O right after submission when the queue
// is empty). Only asynchronous operations are paced by the bandwidth
// limit: the limit exists to stretch hidden I/O across the compute phase,
// and throttling a blocking operation would only prolong visible I/O.
func (a *Agent) Submit(class pfs.Class, bytes int64, async bool) *Request {
	if a.closed {
		panic("adio: submit on closed agent")
	}
	if bytes < 0 {
		panic("adio: negative request size")
	}
	req := &Request{done: des.NewCompletion(a.e)}
	req.Stats.Class = class
	req.Stats.Async = async
	req.Stats.Bytes = bytes
	req.Stats.Submitted = a.e.Now()
	a.queue = append(a.queue, req)
	if a.idle {
		a.idle = false
		a.e.Schedule(a.e.Now(), des.PrioNormal, a.serveFn)
	}
	return req
}

// Close shuts the agent down: it still serves what was submitted, and
// further Submits panic. An idle agent needs no wake to stop.
func (a *Agent) Close() {
	if a.closed {
		return
	}
	a.closed = true
	if a.bb != nil {
		a.bb.Close()
	}
}

// TotalBytes returns the bytes executed for the class so far.
func (a *Agent) TotalBytes(class pfs.Class) int64 { return a.totalBytes[class] }

// RequestsDone returns the number of completed requests.
func (a *Agent) RequestsDone() int { return a.requestsDone }

// Hiccups returns how many scheduling hiccups this agent has charged.
func (a *Agent) Hiccups() int { return a.hiccups }

// Retries returns how many failed sub-request attempts this agent has
// retried under a fault model.
func (a *Agent) Retries() int { return a.retries }

// RetryExhausted returns how many requests this agent abandoned once a
// chunk had used up its retries.
func (a *Agent) RetryExhausted() int { return a.retryExhausted }

// serve takes the next request off the queue and executes it, or, with
// the queue empty, leaves the agent idle until the next Submit. A request
// that needs no wait (zero bytes, no storm queue) completes inline, so
// serve recurses through complete once per such request.
func (a *Agent) serve() {
	if len(a.queue) == 0 {
		a.idle = true
		return
	}
	// The queue is rarely more than a request or two deep: shifting it
	// down keeps one buffer for the agent's lifetime.
	req := a.queue[0]
	n := copy(a.queue, a.queue[1:])
	a.queue[n] = nil
	a.queue = a.queue[:n]
	a.execute(req)
}

// complete fires the generalized request of the request in execution and
// serves the next one.
func (a *Agent) complete() {
	req := a.req
	a.req = nil
	req.done.Complete()
	a.requestsDone++
	a.serve()
}

// execute starts one request against the file system under the current
// limit, implementing the sub-request loop of Sec. V across the steps
// below: each wait of the loop ends the current event, and the step it
// resumes at runs in the event the wait schedules. A sleep is an After
// event, the same (instant, priority) wake a sleeping process gets.
func (a *Agent) execute(req *Request) {
	a.req = req
	req.Stats.Start = a.e.Now()
	req.Stats.Limit = a.limit[req.Stats.Class]
	if !req.Stats.Async {
		req.Stats.Limit = pfs.Unlimited
	}

	// Server-side queuing under storms: the request waits before its
	// first byte moves. Hidden from the application (it lands inside the
	// operation window), but it lengthens the measured throughput window.
	// The queuing time counts toward the first sub-request's actual
	// execution time — the paper's thread compares wall time, so server
	// stalls eat into the sleep budget rather than adding to it. A
	// server-stall fault window multiplies the wait.
	a.queued = 0
	if lat := StormLatency(a.e, a.cfg.QueueLatencyPerFlow,
		a.fs.RecentOps(req.Stats.Class)); lat > 0 {
		if a.faults != nil {
			if f := a.faults.QueueFactor(req.Stats.Class); f > 1 {
				lat = des.DurationOf(lat.Seconds() * f)
			}
		}
		a.queued = lat
		a.e.After(lat, a.beginFn)
		return
	}
	a.begin()
}

// begin moves the request's bytes once its queue wait is over: into the
// burst buffer, or through the sub-request loop.
func (a *Agent) begin() {
	req := a.req
	req.Stats.Queued = a.queued

	// Buffered writes land in the burst-buffer tier at absorb speed; the
	// buffer's drainer shapes the traffic to the file system. The
	// buffered path is never paced (the limit shapes PFS traffic, which
	// buffered writes reach only through the drainer), so the stats
	// report Unlimited — limiter feedback must not treat a buffered
	// phase as throttled. The hiccup tail is charged exactly like the
	// direct path's.
	if a.bb != nil && req.Stats.Class == pfs.Write {
		req.Stats.Limit = pfs.Unlimited
		a.start = a.e.Now()
		a.bb.Write(req.Stats.Bytes, a.bufferedFn)
		return
	}

	a.remaining = req.Stats.Bytes
	a.deficit = 0
	if a.cfg.CarryDeficit {
		a.deficit = a.carriedDeficit
	}
	a.failures = 0
	a.nextChunk()
}

// buffered ends a buffered write once the buffer has absorbed it.
func (a *Agent) buffered() {
	req := a.req
	end := a.e.Now()
	req.Stats.Segments = append(req.Stats.Segments, Segment{Start: a.start.Add(-a.queued), End: end})
	a.totalBytes[pfs.Write] += req.Stats.Bytes
	req.Stats.End = end
	a.maybeHiccup(req)
	a.complete()
}

// nextChunk is the head of the sub-request loop: it starts the next
// chunk's transfer, or ends the request once no bytes remain.
func (a *Agent) nextChunk() {
	req := a.req
	if a.remaining <= 0 {
		a.finish()
		return
	}
	// The limit is re-read per sub-request: a limit installed while a
	// large request is in flight paces its remaining chunks, matching
	// the paper's thread, which consults the limit for every sub-request
	// it executes.
	limit := a.limit[req.Stats.Class]
	a.limited = req.Stats.Async && !math.IsInf(limit, 1)
	a.chunk = a.remaining
	if a.limited && a.chunk > a.cfg.SubRequestSize {
		a.chunk = a.cfg.SubRequestSize
	}
	// Step 2: required time from the limit and the sub-request size.
	a.required = 0
	if a.limited {
		a.required = float64(a.chunk) / limit
	}
	// Step 3: the sub-request itself is a blocking transfer at full
	// speed; throttling happens through the duty cycle. The chunk is
	// never empty, so the flow is still in flight here.
	a.start = a.e.Now()
	a.fs.StartFlow(req.Stats.Class, a.chunk, a.cfg.Tag).Then(a.transferredFn)
}

// transferred runs once the chunk's last byte has moved.
func (a *Agent) transferred() {
	if a.faults != nil {
		// A straggler node moves its bytes at channel speed but hands
		// them over late: the sub-request stretches by the slowdown.
		if slow := a.faults.NodeSlowdown(a.cfg.Tag.Node); slow > 1 {
			moved := a.e.Now().Sub(a.start).Seconds()
			a.e.After(des.DurationOf(moved*(slow-1)), a.settleFn)
			return
		}
	}
	a.settle()
}

// settle books the sub-request that ends now — its segment, a retry on
// a transient error, and the Case A/B pacing — and goes on with the loop.
func (a *Agent) settle() {
	req := a.req
	end := a.e.Now()
	// The first segment extends back over the queue wait, so segment-
	// reconstructed Δt° includes it; subsequent chunks start clean.
	segStart := a.start.Add(-a.queued)
	a.queued = 0
	req.Stats.Segments = append(req.Stats.Segments, Segment{Start: segStart, End: end})
	actual := end.Sub(segStart).Seconds()

	if a.faults != nil {
		if prob := a.faults.ErrorProb(req.Stats.Class); prob > 0 &&
			a.e.Rand().Float64() < prob {
			// Transient I/O error: the attempt burned wire time but
			// delivered nothing. The wasted time banks into the
			// deficit (it was real wall time the pacing must absorb);
			// the chunk is retried after an exponential backoff on
			// the simulated clock, bounded by retryMax.
			if a.limited {
				a.deficit += actual
			}
			a.failures++
			if a.failures > retryMax {
				a.retryExhausted++
				req.Stats.Failed = true
				a.finish()
				return
			}
			req.Stats.Retries++
			a.retries++
			d := retryBackoff(a.failures)
			req.Stats.BackoffSlept += d
			a.e.After(d, a.nextChunkFn)
			return
		}
	}
	a.failures = 0
	a.remaining -= a.chunk

	if !a.limited {
		a.nextChunk()
		return
	}
	if actual < a.required {
		// Case A: faster than the limit allows; sleep the remainder,
		// shortened by any accumulated overrun.
		sleep := a.required - actual
		if a.deficit > 0 {
			use := math.Min(a.deficit, sleep)
			a.deficit -= use
			sleep -= use
		}
		if sleep > 0 {
			// The sleep applies to the final sub-request as well: the
			// operation is not reported complete before its required
			// time elapses, which is what makes the measured
			// throughput track the limit (paper Fig. 9).
			d := des.DurationOf(sleep)
			req.Stats.SleptFor += d
			a.e.After(d, a.nextChunkFn)
			return
		}
	} else {
		// Case B: slower than required; bank the difference.
		a.deficit += actual - a.required
	}
	a.nextChunk()
}

// finish ends the sub-request loop and completes the request.
func (a *Agent) finish() {
	req := a.req
	if a.cfg.CarryDeficit {
		a.carriedDeficit = a.deficit
	}
	// Only delivered bytes count: a request abandoned on retry exhaustion
	// left its remaining bytes untransferred.
	a.totalBytes[req.Stats.Class] += req.Stats.Bytes - a.remaining
	req.Stats.End = a.e.Now()
	a.maybeHiccup(req)
	a.complete()
}

// maybeHiccup models the scheduling cost of an unpaced request: the agent
// never yielded into a timed sleep, so it competed for the host's cores at
// full tilt; occasionally that costs the host a scheduling hiccup.
func (a *Agent) maybeHiccup(req *Request) {
	if a.host == nil || a.cfg.HiccupProb <= 0 || !req.Stats.Async ||
		req.Stats.SleptFor != 0 || req.Stats.Bytes <= 0 {
		return
	}
	rng := a.e.Rand()
	if rng.Float64() < a.cfg.HiccupProb {
		delay := rng.ExpFloat64() * a.cfg.HiccupMean.Seconds()
		a.host.AddInterference(delay)
		a.hiccups++
	}
}

// retryBackoff returns the sleep before the failures-th consecutive
// retry, failures in [1, retryMax]: retryBackoffBase × 2^(failures−1).
func retryBackoff(failures int) des.Duration {
	return retryBackoffBase << (failures - 1)
}
