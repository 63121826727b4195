package pfs

import (
	"math"
	"sort"

	"iobehind/internal/des"
)

// channel is one direction (read or write) of the file system: a capacity
// shared by flows under max–min fairness with per-flow caps.
//
// The fluid model is advanced lazily: whenever the flow set, a cap, or the
// capacity changes, progress since the previous change is integrated at the
// old rates, rates are recomputed by water-filling, and a single event is
// scheduled at the earliest projected flow completion. Keeping one pending
// event (instead of one per flow) bounds the cost of a change to O(flows).
type channel struct {
	e           *des.Engine
	name        string
	base        float64 // configured peak capacity, bytes/s
	capacity    float64 // current effective capacity (noise and faults applied)
	noiseFactor float64 // stationary noise scaling, (0,1]
	faultFactor float64 // fault-injection scaling, [0,1]
	flows       []*Flow
	last        des.Time   // time progress was last integrated
	cancel      des.Handle // pending completion event, if any
	dirty       bool       // a recompute event is queued
	observer    func(now des.Time, flows []*Flow)
	noise       *NoiseConfig
	noiseOn     bool

	// dirtyFn and recomputeFn are the two event callbacks the channel
	// schedules on every recompute cycle, bound once at construction so
	// the hot path never materializes a new closure.
	dirtyFn     func()
	recomputeFn func()

	// Scratch reused across recomputes so the steady-state water-filling
	// path allocates nothing: order backs the sorted view inside
	// allocate, and sorter is its sort.Stable adapter. Valid only within
	// one allocation pass, never across events.
	order  []*Flow
	sorter flowSorter

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

// Flow is one in-flight transfer on a channel.
type Flow struct {
	ch        *channel
	tag       Tag
	total     float64
	remaining float64
	cap       float64
	rate      float64
	finishAt  des.Time // projected completion under current rates
	started   des.Time
	finished  des.Time
	done      *des.Completion
}

// Tag returns the identity the flow was started with.
func (f *Flow) Tag() Tag { return f.tag }

// Rate returns the flow's current allocated bandwidth in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// Started returns when the flow began.
func (f *Flow) Started() des.Time { return f.started }

// Finished returns when the last byte moved; zero while in flight.
func (f *Flow) Finished() des.Time { return f.finished }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done.Done() }

// Wait parks proc until the flow completes.
func (f *Flow) Wait(proc *des.Proc) { f.done.Wait(proc) }

// SetCap changes the flow's bandwidth cap while in flight. It is a no-op
// on completed flows.
func (f *Flow) SetCap(cap float64) {
	if f.done.Done() || f.cap == cap {
		return
	}
	f.ch.integrate()
	f.cap = cap
	f.ch.markDirty()
}

func (c *channel) start(bytes, cap float64, tag Tag) *Flow {
	f := &Flow{
		ch:        c,
		tag:       tag,
		total:     bytes,
		remaining: bytes,
		cap:       cap,
		started:   c.e.Now(),
		done:      des.NewCompletion(c.e),
	}
	if bytes <= 0 {
		f.finished = c.e.Now()
		f.done.Complete()
		return f
	}
	c.integrate()
	c.flows = append(c.flows, f)
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

// integrate advances every flow's remaining bytes to the current instant at
// the rates assigned by the previous recompute.
func (c *channel) integrate() {
	now := c.e.Now()
	dt := now.Sub(c.last).Seconds()
	c.last = now
	if dt <= 0 {
		return
	}
	for _, f := range c.flows {
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

// recompute integrates progress, completes finished flows, water-fills the
// rates of the survivors, and schedules the next completion event.
func (c *channel) recompute() {
	c.integrate()
	now := c.e.Now()

	// Complete drained flows (swap-delete keeps this O(flows)).
	for i := 0; i < len(c.flows); {
		f := c.flows[i]
		if f.remaining <= 0 {
			f.finished = now
			f.rate = 0
			f.finishAt = 0
			last := len(c.flows) - 1
			c.flows[i] = c.flows[last]
			c.flows[last] = nil
			c.flows = c.flows[:last]
			f.done.Complete()
			continue
		}
		i++
	}

	next := c.waterfill()

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
		c.observer(now, c.flows)
	}
}

// waterfill assigns max–min fair rates honouring per-flow caps,
// recomputes each flow's projected finish time, and returns the earliest
// one (zero when no flow will finish on its own) so the caller needs no
// second pass.
func (c *channel) waterfill() des.Time {
	if len(c.flows) == 0 {
		return 0
	}
	c.allocate()
	now := c.e.Now()
	var next des.Time
	for _, f := range c.flows {
		f.finishAt = projectFinish(now, f.remaining, f.rate)
		if f.finishAt != 0 && (next == 0 || f.finishAt < next) {
			next = f.finishAt
		}
	}
	return next
}

// flowOrderLess is the water-filling visit order: ascending cap, with
// ties broken by the flow's tag. The tag tie-break makes the order total
// over distinct flows, so tied caps resolve identically no matter how the
// input happens to be arranged — determinism by construction rather than
// by accident of sort.Slice's pivot choices.
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

// flowSorter adapts a flow slice to sort.Stable without a per-call
// closure; channels keep one and reuse it.
type flowSorter struct{ flows []*Flow }

func (s *flowSorter) Len() int           { return len(s.flows) }
func (s *flowSorter) Less(i, j int) bool { return flowOrderLess(s.flows[i], s.flows[j]) }
func (s *flowSorter) Swap(i, j int)      { s.flows[i], s.flows[j] = s.flows[j], s.flows[i] }

// insertionSortMax is the size up to which sortFlows uses insertion sort.
// Rate classes per channel are few in every workload the simulator
// models, so this covers the common case without sort.Stable's overhead.
const insertionSortMax = 32

// sortFlows stably sorts order by flowOrderLess. Stability matters only
// for flows with identical tags (indistinguishable anyway); it costs
// nothing with insertion sort and keeps the fallback consistent.
func (c *channel) sortFlows(order []*Flow) {
	if len(order) <= insertionSortMax {
		for i := 1; i < len(order); i++ {
			f := order[i]
			j := i - 1
			for j >= 0 && flowOrderLess(f, order[j]) {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = f
		}
		return
	}
	c.sorter.flows = order
	sort.Stable(&c.sorter)
	c.sorter.flows = nil
}

// allocate assigns max–min fair rates to the channel's flows, honouring
// per-flow caps. It only sets f.rate.
func (c *channel) allocate() {
	flows := c.flows

	// Fast path: total demand fits; everyone gets its cap.
	total := 0.0
	capped := true
	for _, f := range flows {
		if math.IsInf(f.cap, 1) {
			capped = false
			break
		}
		total += f.cap
	}
	if capped && total <= c.capacity {
		for _, f := range flows {
			f.rate = f.cap
		}
		return
	}

	// Fast path: no caps (the common case of a synchronized burst) —
	// everyone gets an equal share, no sort needed.
	uncapped := true
	for _, f := range flows {
		if !math.IsInf(f.cap, 1) {
			uncapped = false
			break
		}
	}
	if uncapped {
		rate := c.capacity / float64(len(flows))
		for _, f := range flows {
			f.rate = rate
		}
		return
	}

	// Water-filling: visit flows by ascending cap. A flow whose cap is
	// below the equal share of what is left keeps the cap and donates the
	// rest. Sorting a scratch copy (rather than c.flows) preserves the
	// flow set's insertion order for observers.
	order := append(c.order[:0], flows...)
	c.order = order
	c.sortFlows(order)
	remaining := c.capacity
	for i, f := range order {
		rate := remaining / float64(len(order)-i)
		if f.cap < rate {
			rate = f.cap
		}
		f.rate = rate
		remaining -= rate
	}
	// Drop the flow references so an idle channel's scratch does not pin
	// completed flows for the GC.
	for i := range order {
		order[i] = nil
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
