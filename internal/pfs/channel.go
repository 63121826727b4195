package pfs

import (
	"iobehind/internal/des"
)

// channel is one direction (read or write) of the file system: a capacity
// split evenly among the in-flight flows.
//
// Every flow runs at one rate, the level: capacity/n for n flows. So a
// single counter, served (the bytes each flow has moved since the channel
// last ran empty), describes all their progress: a flow that starts when
// served is s with b bytes finishes when served reaches its virtual finish
// s+b, and a min-heap on virtual finish yields the next completion. This
// is the virtual-time construction of fluid fair queueing (Parekh and
// Gallager's GPS): a start or finish costs O(log n), a capacity change
// O(1).
//
// The fluid model is advanced lazily: whenever the flow set or the
// capacity changes, progress since the previous change is integrated at
// the old rates, rates are recomputed, and a single event is scheduled at
// the earliest projected flow completion.
type channel struct {
	e           *des.Engine
	base        float64    // configured peak capacity, bytes/s
	capacity    float64    // current effective capacity (noise and faults applied)
	noiseFactor float64    // stationary noise scaling, (0,1]
	faultFactor float64    // fault-injection scaling, [0,1]
	heap        []*Flow    // in-flight flows, a min-heap on (vfinish, seq)
	served      float64    // bytes moved per flow; reset when none is left
	level       float64    // the rate of every flow
	seq         uint64     // flows started so far; breaks virtual-finish ties
	last        des.Time   // time progress was last integrated
	cancel      des.Handle // pending completion event, if any
	dirty       bool       // a recompute event is queued
	observer    func(now des.Time, flows []*Flow)
	noise       *NoiseConfig
	noiseOn     bool

	// projAt, projServed and projLevel are the instant, served counter
	// and level of the previous recompute. A flow is done once the
	// finish projected from them has come, even when rounding leaves
	// served a hair short of its virtual finish.
	projAt     des.Time
	projServed float64
	projLevel  float64

	// dirtyFn and recomputeFn are the two event callbacks the channel
	// schedules on every recompute cycle, bound once at construction so
	// the hot path never materializes a new closure.
	dirtyFn     func()
	recomputeFn func()

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

func newChannel(e *des.Engine, capacity float64) *channel {
	c := &channel{
		e: e, base: capacity, capacity: capacity,
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
func (c *channel) active() int { return len(c.heap) }

// Flow is one in-flight transfer on a channel.
type Flow struct {
	ch      *channel
	tag     Tag
	seq     uint64  // start order on the channel
	vfinish float64 // the served count at which the flow is done
	started des.Time
	done    *des.Completion
}

// Tag returns the identity the flow was started with.
func (f *Flow) Tag() Tag { return f.tag }

// Rate returns the flow's current allocated bandwidth in bytes/s; zero
// once it has completed.
func (f *Flow) Rate() float64 {
	if f.done.Done() {
		return 0
	}
	return f.ch.level
}

// Started returns when the flow began.
func (f *Flow) Started() des.Time { return f.started }

// Finished returns when the last byte moved; zero while in flight.
func (f *Flow) Finished() des.Time { return f.done.At() }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done.Done() }

// Wait parks proc until the flow completes.
func (f *Flow) Wait(proc *des.Proc) { f.done.Wait(proc) }

// Then schedules fn as a function event when the flow completes, in the
// slot a process parked in Wait would wake in. It panics once the flow
// has finished; a zero-byte flow finishes as it starts.
func (f *Flow) Then(fn func()) { f.done.Then(fn) }

func (c *channel) start(bytes float64, tag Tag) *Flow {
	f := &Flow{
		ch:      c,
		tag:     tag,
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
	f.vfinish = c.served + bytes
	c.push(f)
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

// integrate advances the served counter to the current instant at the
// level assigned by the previous recompute, which moves every flow at once.
func (c *channel) integrate() {
	now := c.e.Now()
	dt := now.Sub(c.last).Seconds()
	c.last = now
	if dt <= 0 {
		return
	}
	c.served += c.level * dt
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

// recompute integrates progress, completes finished flows in (virtual
// finish, start) order, re-rates the survivors, and schedules the next
// completion event.
func (c *channel) recompute() {
	c.integrate()
	now := c.e.Now()

	for len(c.heap) > 0 && c.flowDone(c.heap[0], now) {
		c.pop().done.Complete()
	}
	if len(c.heap) == 0 {
		c.served = 0
	}

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
		c.observer(now, c.heap)
	}
}

// flowDone reports whether a flow has finished by now: its virtual finish
// has been served, or the finish projected at the previous recompute has
// come. Both tests are monotone in the virtual finish, so the finished
// flows are always a prefix of the heap's order.
func (c *channel) flowDone(f *Flow, now des.Time) bool {
	if f.vfinish <= c.served {
		return true
	}
	at := projectFinish(c.projAt, f.vfinish-c.projServed, c.projLevel)
	return at != 0 && at <= now
}

// allocate gives every flow the level, capacity/n, and returns the
// projected finish of the heap's head (zero when no flow will finish on
// its own), recording the projection basis for flowDone.
func (c *channel) allocate(now des.Time) des.Time {
	c.level = 0
	var next des.Time
	if len(c.heap) > 0 {
		c.level = c.capacity / float64(len(c.heap))
		next = projectFinish(now, c.heap[0].vfinish-c.served, c.level)
	}
	c.projAt, c.projServed, c.projLevel = now, c.served, c.level
	return next
}

// heapLess orders flows by virtual finish, then by start.
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

// maxProjectSeconds is the projection horizon, about 73 virtual years.
// Beyond it the nanosecond clock would overflow to a negative instant (a
// terabyte-scale flow on an outage-floored 1 B/s channel gets there
// easily).
const maxProjectSeconds = float64(1<<61) / 1e9

// projectFinish returns the absolute completion time of a flow, rounding up
// a nanosecond so the completion event never fires before the fluid model
// says the flow is done. It returns zero, no finish, when the rate is zero
// or the completion lies past the horizon: such a flow does not finish on
// its own, and the next recompute (a fault window closing, a noise step, a
// flow starting or finishing) projects it again. A run in which none comes
// ends with the flow still in flight rather than reporting bytes it never
// moved as delivered.
func projectFinish(now des.Time, remaining, rate float64) des.Time {
	if rate <= 0 {
		return 0
	}
	seconds := remaining / rate
	if seconds > maxProjectSeconds {
		return 0
	}
	return now.Add(des.DurationOf(seconds) + 1)
}
