package des

// This file provides virtual-time synchronization primitives built on the
// park/wake handoff. Because the engine runs one goroutine at a time, none
// of these types need locks.

// Completion is a one-shot event that processes can wait for (a future).
// The zero value is not ready; create with NewCompletion.
type Completion struct {
	e       *Engine
	done    bool
	at      Time
	waiters []waiter
}

// waiter records one parked process and the wake token it expects. It is
// stored by value inside the synchronization types so registering a
// waiter costs no allocation once the slice is warm.
type waiter struct {
	p   *Proc
	tok uint64
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Engine) *Completion {
	return &Completion{e: e}
}

// Done reports whether the completion has fired.
func (c *Completion) Done() bool { return c.done }

// At returns the virtual time the completion fired; zero if it has not.
func (c *Completion) At() Time { return c.at }

// Complete fires the completion and wakes all waiters at the current
// instant. Completing twice panics: a generalized request must complete
// exactly once.
func (c *Completion) Complete() {
	if c.done {
		panic("des: Completion completed twice")
	}
	c.done = true
	c.at = c.e.now
	for _, w := range c.waiters {
		c.e.wakeAt(w.p, c.e.now, PrioNormal, w.tok)
	}
	c.waiters = nil
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

// Mailbox is an unbounded FIFO queue with blocking receive, used for
// client/server schemes such as the per-rank I/O agent. Its buffer is
// reused: a mailbox that drains and refills allocates nothing in the
// steady state.
type Mailbox[T any] struct {
	e       *Engine
	items   []T // items[head:] are queued; items[:head] are zeroed
	head    int
	recv    waiter // at most one receiver may wait at a time
	waiting bool   // recv holds a parked receiver
}

// NewMailbox returns an empty mailbox bound to e.
func NewMailbox[T any](e *Engine) *Mailbox[T] {
	return &Mailbox[T]{e: e}
}

// Put enqueues v and wakes the waiting receiver, if any. It never blocks
// and may be called from function events as well as processes.
func (m *Mailbox[T]) Put(v T) {
	if m.head > 0 && len(m.items) == cap(m.items) {
		// Full but with consumed slots in front: slide the queue down
		// instead of growing the buffer.
		n := copy(m.items, m.items[m.head:])
		clear(m.items[n:])
		m.items = m.items[:n]
		m.head = 0
	}
	m.items = append(m.items, v)
	if m.waiting {
		w := m.recv
		m.waiting = false
		m.e.wakeAt(w.p, m.e.now, PrioNormal, w.tok)
	}
}

// Get dequeues the oldest item, blocking the process while the mailbox is
// empty. Only one process may block on a mailbox at a time.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.Len() == 0 {
		if m.waiting {
			panic("des: concurrent Mailbox.Get")
		}
		tok := p.nextToken()
		m.recv = waiter{p: p, tok: tok}
		m.waiting = true
		p.block(tok)
	}
	return m.pop()
}

// TryGet dequeues without blocking; ok reports whether an item was present.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	if m.Len() == 0 {
		return v, false
	}
	return m.pop(), true
}

// pop removes the oldest item from a non-empty mailbox. Draining the last
// item rewinds the buffer so the next Put reuses it from the start.
func (m *Mailbox[T]) pop() T {
	v := m.items[m.head]
	var zero T
	m.items[m.head] = zero
	m.head++
	if m.head == len(m.items) {
		m.items = m.items[:0]
		m.head = 0
	}
	return v
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.head }

// Barrier synchronizes a fixed party of n processes repeatedly. All n must
// arrive before any proceeds; the barrier then resets for the next round.
type Barrier struct {
	e       *Engine
	n       int
	arrived int
	waiters []waiter
	rounds  int
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
		b.rounds++
		if delay > 0 {
			p.SleepUntil(release)
		}
		return
	}
	tok := p.nextToken()
	b.waiters = append(b.waiters, waiter{p: p, tok: tok})
	p.block(tok)
}

// Rounds returns how many times the barrier has released.
func (b *Barrier) Rounds() int { return b.rounds }
