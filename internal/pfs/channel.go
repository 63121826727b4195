package pfs

import (
	"math"

	"iobehind/internal/des"
)

// channel is one direction (read or write) of the file system: a capacity
// shared by flows under max–min fairness with per-flow caps.
//
// Flows fall into two sets. Capped flows (only the burst-buffer drainer
// sets a cap) keep their own remaining bytes in a slice held in
// (cap, tag) order and water-fill first. Every uncapped flow then runs at
// one rate, the level: the capacity the capped flows leave, split evenly.
// So a single counter, served (the bytes each uncapped flow has moved
// since the channel last ran out of them), describes all their progress:
// a flow that starts when served is s with b bytes finishes when served
// reaches its virtual finish s+b, and a min-heap on virtual finish yields
// the next completion. This is the virtual-time construction of fluid fair
// queueing (Parekh and Gallager's GPS): an uncapped start or finish costs
// O(log n), a capacity change O(1), and only the few capped flows are
// scanned.
//
// The fluid model is advanced lazily: whenever the flow set or the
// capacity changes, progress since the previous change is integrated at
// the old rates, rates are recomputed, and a single event is scheduled at
// the earliest projected flow completion.
type channel struct {
	e           *des.Engine
	name        string
	base        float64    // configured peak capacity, bytes/s
	capacity    float64    // current effective capacity (noise and faults applied)
	noiseFactor float64    // stationary noise scaling, (0,1]
	faultFactor float64    // fault-injection scaling, [0,1]
	heap        []*Flow    // uncapped flows, a min-heap on (vfinish, seq)
	capped      []*Flow    // capped flows in flowOrderLess order, ties in start order
	served      float64    // bytes moved per uncapped flow; reset when none is left
	level       float64    // the rate of every uncapped flow
	seq         uint64     // flows started so far; breaks virtual-finish ties
	last        des.Time   // time progress was last integrated
	cancel      des.Handle // pending completion event, if any
	dirty       bool       // a recompute event is queued
	observer    func(now des.Time, flows []*Flow)
	noise       *NoiseConfig
	noiseOn     bool

	// projAt, projServed and projLevel are the instant, served counter
	// and level of the previous recompute. An uncapped flow is done once
	// the finish projected from them has come, even when rounding leaves
	// served a hair short of its virtual finish.
	projAt     des.Time
	projServed float64
	projLevel  float64

	// dirtyFn and recomputeFn are the two event callbacks the channel
	// schedules on every recompute cycle, bound once at construction so
	// the hot path never materializes a new closure.
	dirtyFn     func()
	recomputeFn func()

	// view is the observer's scratch: every in-flight flow, heap first.
	// Valid only during one observer call.
	view []*Flow

	// recent tracks operation submissions inside the storm window for the
	// burst-storm latency model; head indexes the oldest live entry.
	recent []des.Time
	head   int
}

// stormWindow is how long a submitted operation counts toward the burst
// concurrency estimate.
const stormWindow = des.Second

// noteOp records an operation submission and returns the number of
// operations (including this one) seen within the storm window.
func (c *channel) noteOp() int {
	c.pruneRecent()
	c.recent = append(c.recent, c.e.Now())
	return len(c.recent) - c.head
}

// recentOps returns the number of operations submitted within the storm
// window.
func (c *channel) recentOps() int {
	c.pruneRecent()
	return len(c.recent) - c.head
}

func (c *channel) pruneRecent() {
	cutoff := c.e.Now().Add(-stormWindow)
	for c.head < len(c.recent) && c.recent[c.head] <= cutoff {
		c.head++
	}
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if c.head > 1024 && c.head > len(c.recent)/2 {
		c.recent = append(c.recent[:0], c.recent[c.head:]...)
		c.head = 0
	}
}

func newChannel(e *des.Engine, name string, capacity float64) *channel {
	c := &channel{
		e: e, name: name,
		base: capacity, capacity: capacity,
		noiseFactor: 1, faultFactor: 1,
	}
	c.dirtyFn = func() {
		c.dirty = false
		c.recompute()
	}
	c.recomputeFn = c.recompute
	return c
}

// active returns the number of in-flight flows.
func (c *channel) active() int { return len(c.heap) + len(c.capped) }

// Flow is one in-flight transfer on a channel.
type Flow struct {
	ch      *channel
	tag     Tag
	cap     float64
	seq     uint64  // start order on the channel
	vfinish float64 // uncapped: the served count at which the flow is done
	started des.Time
	done    *des.Completion

	// Capped flows only: bytes still to move, the allocated rate, and the
	// completion projected under it.
	remaining float64
	rate      float64
	finishAt  des.Time
}

// Tag returns the identity the flow was started with.
func (f *Flow) Tag() Tag { return f.tag }

// Rate returns the flow's current allocated bandwidth in bytes/s; zero
// once it has completed.
func (f *Flow) Rate() float64 {
	switch {
	case f.done.Done():
		return 0
	case f.uncapped():
		return f.ch.level
	}
	return f.rate
}

// Started returns when the flow began.
func (f *Flow) Started() des.Time { return f.started }

// Finished returns when the last byte moved; zero while in flight.
func (f *Flow) Finished() des.Time { return f.done.At() }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done.Done() }

// Wait parks proc until the flow completes.
func (f *Flow) Wait(proc *des.Proc) { f.done.Wait(proc) }

func (f *Flow) uncapped() bool { return math.IsInf(f.cap, 1) }

func (c *channel) start(bytes, cap float64, tag Tag) *Flow {
	f := &Flow{
		ch:      c,
		tag:     tag,
		cap:     cap,
		started: c.e.Now(),
		done:    des.NewCompletion(c.e),
	}
	if bytes <= 0 {
		f.done.Complete()
		return f
	}
	c.integrate()
	c.seq++
	f.seq = c.seq
	if f.uncapped() {
		f.vfinish = c.served + bytes
		c.push(f)
	} else {
		f.remaining = bytes
		c.insertCapped(f)
	}
	c.markDirty()
	c.maybeStartNoise()
	return f
}

// setNoiseFactor installs the stationary-noise scaling and reapplies the
// combined effective capacity.
func (c *channel) setNoiseFactor(f float64) {
	c.noiseFactor = f
	c.applyFactors()
}

// setFaultFactor installs the fault-injection scaling (clamped to [0,1])
// and reapplies the combined effective capacity. A factor of 0 (an
// outage) lands on setCapacity's 1 B/s floor: flows stall for the window
// but can never deadlock the simulation.
func (c *channel) setFaultFactor(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	c.faultFactor = f
	c.applyFactors()
}

// applyFactors recomputes the effective capacity as base × noise × fault,
// so the two degradation sources compose instead of overwriting each
// other.
func (c *channel) applyFactors() {
	c.setCapacity(c.base * c.noiseFactor * c.faultFactor)
}

// setCapacity changes the effective channel capacity (noise injection).
func (c *channel) setCapacity(capacity float64) {
	if capacity <= 0 {
		capacity = 1 // never fully stall the file system
	}
	if capacity == c.capacity {
		return
	}
	c.integrate()
	c.capacity = capacity
	c.markDirty()
}

// integrate advances the flows to the current instant at the rates
// assigned by the previous recompute: the served counter for every
// uncapped flow at once, then each capped flow's remaining bytes.
func (c *channel) integrate() {
	now := c.e.Now()
	dt := now.Sub(c.last).Seconds()
	c.last = now
	if dt <= 0 {
		return
	}
	c.served += c.level * dt
	for _, f := range c.capped {
		if f.finishAt != 0 && f.finishAt <= now {
			f.remaining = 0
		} else {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
}

// markDirty schedules a single recompute at the current instant, after all
// same-instant process activity, so bursts of flow starts are batched.
func (c *channel) markDirty() {
	if c.dirty {
		return
	}
	c.dirty = true
	c.e.Schedule(c.e.Now(), des.PrioLate+1, c.dirtyFn)
}

// recompute integrates progress, completes finished flows — uncapped ones
// in (virtual finish, start) order, then capped ones in their slice
// order — re-rates the survivors, and schedules the next completion event.
func (c *channel) recompute() {
	c.integrate()
	now := c.e.Now()

	for len(c.heap) > 0 && c.uncappedDone(c.heap[0], now) {
		c.pop().done.Complete()
	}
	if len(c.heap) == 0 {
		c.served = 0
	}
	kept := c.capped[:0]
	for _, f := range c.capped {
		if f.remaining > 0 {
			kept = append(kept, f)
		} else {
			f.done.Complete()
		}
	}
	clear(c.capped[len(kept):])
	c.capped = kept

	next := c.allocate(now)

	// Replace the pending completion event with one at the new earliest
	// completion. The stale event is cancelled; the engine's dead-event
	// compaction keeps this reschedule-per-recompute pattern from
	// accumulating corpses in the queue.
	c.cancel.Cancel()
	c.cancel = des.Handle{}
	if next != 0 {
		c.cancel = c.e.Schedule(next, des.PrioEarly, c.recomputeFn)
	}
	if c.observer != nil {
		c.view = append(append(c.view[:0], c.heap...), c.capped...)
		c.observer(now, c.view)
		clear(c.view)
	}
}

// uncappedDone reports whether an uncapped flow has finished by now: its
// virtual finish has been served, or the finish projected at the previous
// recompute has come. Both tests are monotone in the virtual finish, so
// the finished flows are always a prefix of the heap's order.
func (c *channel) uncappedDone(f *Flow, now des.Time) bool {
	if f.vfinish <= c.served {
		return true
	}
	at := projectFinish(c.projAt, f.vfinish-c.projServed, c.projLevel)
	return at != 0 && at <= now
}

// allocate assigns max–min fair rates: capped flows water-fill in
// ascending (cap, tag) order, each taking its cap or an equal share of
// what is left, whichever is smaller, and the uncapped flows split the
// rest evenly. It returns the earliest projected completion (zero when no
// flow will finish on its own) and records the projection basis for
// uncappedDone.
func (c *channel) allocate(now des.Time) des.Time {
	left := c.capacity
	n := len(c.capped) + len(c.heap)
	var next des.Time
	for i, f := range c.capped {
		rate := left / float64(n-i)
		if f.cap < rate {
			rate = f.cap
		}
		f.rate = rate
		left -= rate
		f.finishAt = projectFinish(now, f.remaining, rate)
		if f.finishAt != 0 && (next == 0 || f.finishAt < next) {
			next = f.finishAt
		}
	}
	c.level = 0
	if len(c.heap) > 0 {
		c.level = left / float64(len(c.heap))
		at := projectFinish(now, c.heap[0].vfinish-c.served, c.level)
		if at != 0 && (next == 0 || at < next) {
			next = at
		}
	}
	c.projAt, c.projServed, c.projLevel = now, c.served, c.level
	return next
}

// flowOrderLess is the water-filling visit order of capped flows:
// ascending cap, with ties broken by the flow's tag. The tag tie-break
// makes the order total over distinct flows, so tied caps resolve
// identically no matter in which order the flows started.
func flowOrderLess(a, b *Flow) bool {
	if a.cap < b.cap {
		return true
	}
	if a.cap > b.cap {
		return false
	}
	if a.tag.Job != b.tag.Job {
		return a.tag.Job < b.tag.Job
	}
	if a.tag.Node != b.tag.Node {
		return a.tag.Node < b.tag.Node
	}
	return a.tag.Rank < b.tag.Rank
}

// insertCapped places f after every capped flow that does not order after
// it, so flows with equal cap and tag keep their start order.
func (c *channel) insertCapped(f *Flow) {
	i := len(c.capped)
	c.capped = append(c.capped, f)
	for i > 0 && flowOrderLess(f, c.capped[i-1]) {
		c.capped[i] = c.capped[i-1]
		i--
	}
	c.capped[i] = f
}

// heapLess orders uncapped flows by virtual finish, then by start.
func heapLess(a, b *Flow) bool {
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.seq < b.seq
}

func (c *channel) push(f *Flow) {
	c.heap = append(c.heap, f)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(c.heap[i], c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

func (c *channel) pop() *Flow {
	h := c.heap
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	c.heap = h
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && heapLess(h[left], h[smallest]) {
			smallest = left
		}
		if right < n && heapLess(h[right], h[smallest]) {
			smallest = right
		}
		if smallest == i {
			return top
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// maxProjectSeconds caps a projected transfer duration at about 73 virtual
// years. Beyond it the nanosecond clock would overflow to a negative
// instant (a terabyte-scale flow on an outage-floored 1 B/s channel gets
// there easily). A clamped completion event just fires at the horizon,
// integrates the progress actually made, and re-projects — the flow still
// finishes at the right virtual time.
const maxProjectSeconds = float64(1<<61) / 1e9

// projectFinish returns the absolute completion time of a flow, rounding up
// a nanosecond so the completion event never fires before the fluid model
// says the flow is done. Zero-rate flows never finish on their own.
func projectFinish(now des.Time, remaining, rate float64) des.Time {
	if rate <= 0 {
		return 0
	}
	seconds := remaining / rate
	if seconds > maxProjectSeconds {
		seconds = maxProjectSeconds
	}
	d := des.DurationOf(seconds) + 1
	return now.Add(d)
}
