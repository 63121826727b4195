package des

import (
	"fmt"
	"math/rand"
	"runtime/debug"
)

// Event priorities. Among events scheduled for the same virtual instant,
// lower priorities fire first. Using distinct bands keeps composite
// operations deterministic: e.g. an I/O completion posted "now" is observed
// before a compute phase that starts "now".
const (
	PrioEarly  int32 = -100
	PrioNormal int32 = 0
	PrioLate   int32 = 100
)

// killToken is delivered by Engine.Shutdown to a parked or not yet started
// process to make it unwind and exit. Regular wakeups always carry a
// non-zero token.
const killToken uint64 = 0

// errKilled is the sentinel panic value used to unwind killed processes.
type errKilled struct{}

// Engine is a deterministic discrete-event simulation kernel.
//
// The engine executes one event at a time, in (time, priority, sequence)
// order. The event loop runs on whichever goroutine holds control: the
// one blocked in Run, or the process that has just parked or exited.
// Function events run inline on that goroutine. An event that wakes a
// process passes control straight to that process's goroutine, or costs
// no switch at all when the process is waking itself. Exactly one
// goroutine runs simulation code at any instant, so no locking is needed
// anywhere in the simulation and results are reproducible.
type Engine struct {
	now     Time
	heap    eventHeap
	free    []*event // recycled event objects (the pool)
	dead    int      // cancelled events still sitting in the heap
	seq     uint64
	handoff chan uint64 // control back to the goroutine blocked in Run or Shutdown
	procs   []*Proc
	nextID  int
	failure error
	rng     *rand.Rand
	running bool
	stopped bool

	// Statistics.
	eventsRun       int64
	eventsPooled    int64
	deadCompactions int64
	maxHeap         int
}

// compactThreshold is the minimum number of dead events before the heap
// is compacted. Below it, skipping corpses at pop time is cheaper than a
// rebuild; above it, compaction runs only once dead entries outnumber
// live ones, keeping the amortized cost per cancellation O(1).
const compactThreshold = 64

// NewEngine returns an engine with virtual time 0 and a PRNG seeded with
// seed. All simulation randomness must come from Rand() so runs are
// reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{
		handoff: make(chan uint64),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine-owned PRNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Handle identifies one scheduled event activation. The zero Handle is
// inert: Cancel on it does nothing. Handles are plain values, so handing
// one out costs no allocation.
type Handle struct {
	ev  *event
	gen uint32
}

// Cancel marks the event dead so the engine skips it; it is a no-op after
// the event has fired. Event objects are pooled and recycled, but a
// recycle bumps the object's generation, so a stale Handle retained past
// its event's execution can never kill an unrelated later event.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.dead {
		return
	}
	ev.dead = true
	// Drop the payload references now: a dead event may sit in the heap
	// for a long virtual time, and it must not pin callbacks or processes
	// for the GC meanwhile.
	ev.fn = nil
	ev.proc = nil
	e := ev.owner
	e.dead++
	if e.dead >= compactThreshold && e.dead*2 > e.heap.len() {
		e.compact()
	}
}

// newEvent returns an event object from the free list, or a fresh one if
// the pool is empty. The caller must set the payload fields.
func (e *Engine) newEvent() *event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		e.eventsPooled++
		return ev
	}
	return &event{owner: e}
}

// recycle returns a popped (or compacted-away) event to the pool. The
// generation bump invalidates every Handle issued for the finished
// activation; clearing fn and proc releases the payload references so the
// pool never pins simulation objects.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// compact removes dead events from the heap in one linear pass, recycles
// them, and restores the heap invariant. Cancel triggers it once corpses
// dominate the queue, which keeps cancel-heavy workloads (such as a pfs
// channel rescheduling its single completion event on every recompute)
// from growing the heap without bound.
func (e *Engine) compact() {
	items := e.heap.items
	kept := items[:0]
	for _, ev := range items {
		if ev.dead {
			e.recycle(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	// Clear the tail so the backing array does not retain extra pointers
	// to pooled events.
	for i := len(kept); i < len(items); i++ {
		items[i] = nil
	}
	e.heap.items = kept
	e.heap.init()
	e.dead = 0
	e.deadCompactions++
}

// Schedule runs fn at the absolute virtual time at (which must not be in
// the past) with the given priority. The returned Handle cancels the
// event; cancelling after the event has fired is a no-op.
func (e *Engine) Schedule(at Time, prio int32, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < now %v", at, e.now))
	}
	e.seq++
	ev := e.newEvent()
	ev.at, ev.prio, ev.seq = at, prio, e.seq
	ev.fn, ev.token = fn, 0
	e.heap.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After runs fn after duration d with normal priority.
func (e *Engine) After(d Duration, fn func()) Handle {
	return e.Schedule(e.now.Add(d), PrioNormal, fn)
}

// wakeAt schedules process p to resume at time at carrying token.
func (e *Engine) wakeAt(p *Proc, at Time, prio int32, token uint64) {
	if at < e.now {
		panic(fmt.Sprintf("des: waking into the past: %v < now %v", at, e.now))
	}
	if token == killToken {
		panic("des: zero wake token is reserved")
	}
	e.seq++
	ev := e.newEvent()
	ev.at, ev.prio, ev.seq = at, prio, e.seq
	ev.proc, ev.token = p, token
	e.heap.push(ev)
}

// Stop makes Run return after the current event completes. Pending events
// are retained; Run can be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains, Stop is called, or the run
// fails, and returns the first failure: a process or a function event
// that panicked. A panicking function event becomes this error on
// whichever goroutine it ran; it never unwinds the caller of Run.
//
// Run's own goroutine executes events only up to the first one that
// wakes a process. From there control passes directly from process to
// process, and Run blocks until one of them stops the loop.
func (e *Engine) Run() error {
	if e.running {
		panic("des: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	if p, tok := e.next(); p != nil {
		e.resume(p, tok)
		wait(e.handoff)
	}
	e.running = false
	return e.failure
}

// next executes events in queue order until one wakes a process, and
// returns that process with the token the event carries. It returns nil
// once the queue drains, Stop has been called, or the run has failed.
// next runs on whichever goroutine holds control, so it recovers a
// panicking function event into the run's failure: the panic must not
// unwind a process goroutine that merely hosted the event. One deferred
// recover per call, not per event, keeps the function-event path cheap.
func (e *Engine) next() (p *Proc, tok uint64) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("des: event at %v panicked: %v\n%s", e.now, r, debug.Stack()))
			p, tok = nil, 0
		}
	}()
	for e.failure == nil && !e.stopped && e.heap.len() > 0 {
		if live := e.heap.len() - e.dead; live > e.maxHeap {
			e.maxHeap = live
		}
		ev := e.heap.pop()
		if ev.dead {
			e.dead--
			e.recycle(ev)
			continue
		}
		// Copy the payload and recycle before executing: the callback may
		// schedule new events, and letting it reuse this object keeps the
		// pool at its minimum size. Any Handle to this activation is
		// invalidated by the recycle's generation bump first.
		fn, proc, token := ev.fn, ev.proc, ev.token
		e.now = ev.at
		e.recycle(ev)
		e.eventsRun++
		if fn == nil {
			return proc, token
		}
		fn()
	}
	return nil, 0
}

// resume passes control to p with tok, or back to the goroutine blocked
// in Run or Shutdown when p is nil. The caller must block in wait or exit
// right after: control is no longer its own.
func (e *Engine) resume(p *Proc, tok uint64) {
	ch := e.handoff
	if p != nil {
		ch = p.wake
	}
	//iolint:ignore goroutine coroutine handoff: control passes to exactly one goroutine blocked in wait, and the sender blocks or exits right after, so one goroutine runs simulation code at any instant
	ch <- tok
}

// wait blocks the calling goroutine until resume passes control to it on
// ch — a process's wake channel, or the engine's handoff in Run and
// Shutdown — and returns the token that came with it.
func wait(ch chan uint64) uint64 {
	//iolint:ignore goroutine coroutine handoff: the goroutine sleeps here until resume passes control to it; nothing else runs it
	return <-ch
}

// Stalled returns the processes that are still alive after Run returned:
// they are parked waiting for a wakeup that never came (usually a deadlock
// or an intentionally infinite server process).
func (e *Engine) Stalled() []*Proc {
	var out []*Proc
	for _, p := range e.procs {
		if !p.finished {
			out = append(out, p)
		}
	}
	return out
}

// Shutdown forcibly unwinds all still-parked processes so their goroutines
// exit, including processes that never started: their bodies do not run.
// Call it after Run when the simulation intentionally leaves server
// processes running. A process that parks inside a deferred function
// while it unwinds is unwound again at that park; Shutdown never runs
// events. Shutdown clears the failure the last Run reported.
func (e *Engine) Shutdown() {
	if e.running {
		panic("des: Shutdown called while running")
	}
	for _, p := range e.procs {
		if p.finished {
			continue
		}
		p.killed = true
		e.resume(p, killToken)
		wait(e.handoff)
	}
	e.failure = nil
}

// Stats reports the engine's execution statistics.
type Stats struct {
	// EventsRun is the number of events executed (dead events excluded).
	EventsRun int64
	// EventsPooled is the number of event activations served from the
	// free list instead of a fresh allocation. On a warmed-up engine it
	// tracks EventsRun: the steady-state hot path allocates no events.
	EventsPooled int64
	// DeadCompactions is the number of times the pending queue was
	// rebuilt to evict cancelled events that had come to dominate it.
	DeadCompactions int64
	// MaxHeap is the peak number of live (non-cancelled) pending events.
	// Dead events awaiting compaction are excluded, so the figure
	// reflects real queue pressure even in cancel-heavy workloads.
	MaxHeap int
	// Procs is the number of processes ever spawned.
	Procs int
	// Now is the current virtual time.
	Now Time
}

// Stats returns execution statistics, useful for performance analysis of
// the simulation itself.
func (e *Engine) Stats() Stats {
	return Stats{
		EventsRun:       e.eventsRun,
		EventsPooled:    e.eventsPooled,
		DeadCompactions: e.deadCompactions,
		MaxHeap:         e.maxHeap,
		Procs:           len(e.procs),
		Now:             e.now,
	}
}

// fail records the first failure of the run; later ones are dropped.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
}
