package des

// This file provides virtual-time synchronization primitives built on the
// park/wake handoff. Because the engine runs one goroutine at a time, none
// of these types need locks.

// Completion is a one-shot event that processes can wait for (a future),
// and that event-driven code can chain a continuation onto with Then.
// The zero value is not ready; create with NewCompletion.
type Completion struct {
	e       *Engine
	done    bool
	at      Time
	waiters []waiter
}

// waiter records one parked process and the wake token it expects, or,
// when fn is set, a continuation to run as a function event instead. It
// is stored by value inside the synchronization types so registering a
// waiter costs no allocation once the slice is warm.
type waiter struct {
	p   *Proc
	tok uint64
	fn  func()
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Engine) *Completion {
	return &Completion{e: e}
}

// Done reports whether the completion has fired.
func (c *Completion) Done() bool { return c.done }

// At returns the virtual time the completion fired; zero if it has not.
func (c *Completion) At() Time { return c.at }

// Complete fires the completion and releases all waiters at the current
// instant, in registration order: a parked process is woken, a Then
// continuation is scheduled as a function event in the same slot.
// Completing twice panics: a generalized request must complete exactly
// once.
func (c *Completion) Complete() {
	if c.done {
		panic("des: Completion completed twice")
	}
	c.done = true
	c.at = c.e.now
	for _, w := range c.waiters {
		if w.fn != nil {
			c.e.Schedule(c.e.now, PrioNormal, w.fn)
		} else {
			c.e.wakeAt(w.p, c.e.now, PrioNormal, w.tok)
		}
	}
	c.waiters = nil
}

// Then registers fn to run when the completion fires, as a function event
// in the slot a process parked in Wait at this point would wake in. Code
// that runs as engine events uses it where a process would Wait. Unlike
// Wait, it has no immediate path: calling Then on a fired completion
// panics, so the caller checks Done first when the completion may have
// fired.
func (c *Completion) Then(fn func()) {
	if c.done {
		panic("des: Then on a fired Completion")
	}
	c.waiters = append(c.waiters, waiter{fn: fn})
}

// Wait blocks the calling process until the completion fires. It returns
// immediately if it already has.
func (c *Completion) Wait(p *Proc) {
	if c.done {
		return
	}
	tok := p.nextToken()
	c.waiters = append(c.waiters, waiter{p: p, tok: tok})
	p.block(tok)
}

// Barrier synchronizes a fixed party of n processes repeatedly. All n must
// arrive before any proceeds; the barrier then resets for the next round.
type Barrier struct {
	e       *Engine
	n       int
	arrived int
	waiters []waiter
}

// NewBarrier returns a reusable barrier for n parties.
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		panic("des: barrier party must be >= 1")
	}
	return &Barrier{e: e, n: n}
}

// Await blocks until all n parties have called Await for the current round.
// The release is scheduled delay after the last arrival, modelling the
// network cost of the synchronizing collective.
func (b *Barrier) Await(p *Proc, delay Duration) {
	b.arrived++
	if b.arrived == b.n {
		release := b.e.now.Add(delay)
		for _, w := range b.waiters {
			b.e.wakeAt(w.p, release, PrioNormal, w.tok)
		}
		b.waiters = b.waiters[:0]
		b.arrived = 0
		if delay > 0 {
			p.SleepUntil(release)
		}
		return
	}
	tok := p.nextToken()
	b.waiters = append(b.waiters, waiter{p: p, tok: tok})
	p.block(tok)
}
