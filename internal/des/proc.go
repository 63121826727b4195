package des

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulation process: a goroutine that runs in virtual time under
// the engine's strict one-at-a-time scheduling. A parking process runs the
// event loop itself and hands control straight to the next process due,
// so it is the only goroutine running simulation code until it blocks.
// All Proc methods must be called from the process's own goroutine while
// it is the running process.
type Proc struct {
	e        *Engine
	name     string
	id       int
	wake     chan uint64
	finished bool
	killed   bool
	// waitSeq numbers this proc's blocking operations; it doubles as the
	// wake token so stale wakeups can be detected.
	waitSeq uint64
}

// Spawn creates a process named name running fn, scheduled to start at the
// current virtual time. It may be called before Run or from a running
// process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that starts at the absolute time at.
func (e *Engine) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{e: e, name: name, id: e.nextID, wake: make(chan uint64)}
	e.procs = append(e.procs, p)
	//iolint:ignore goroutine coroutine handoff: the new goroutine blocks in wait at once and runs only after control is passed to it, so exactly one goroutine runs simulation code at any instant
	go p.run(fn)
	p.waitSeq++
	e.wakeAt(p, at, PrioNormal, p.waitSeq)
	return p
}

// run is the process goroutine. A kill that arrives instead of the first
// activation unwinds it before fn ever runs.
func (p *Proc) run(fn func(p *Proc)) {
	defer p.exit()
	p.await()
	fn(p)
}

// exit ends the process goroutine: it records a panic as the run's
// failure, marks the process finished and passes control on. A killed
// process hands it back to Shutdown; any other continues the event loop
// and resumes the next process due.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, ok := r.(errKilled); !ok {
			p.e.fail(fmt.Errorf("des: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
		}
	}
	p.finished = true
	if p.killed {
		p.e.resume(nil, 0)
		return
	}
	p.e.resume(p.e.next())
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park suspends the process until an event wakes it, and returns the
// token that event carried. It runs the event loop on this goroutine: if
// the next process due is this one, park returns at once with no switch;
// otherwise it passes control to that process (or back to Run, once the
// loop stops) and blocks. A process that Shutdown is unwinding is unwound
// again here instead of running events.
func (p *Proc) park() uint64 {
	if p.killed {
		panic(errKilled{})
	}
	q, tok := p.e.next()
	if q == p {
		return tok
	}
	p.e.resume(q, tok)
	return p.await()
}

// await blocks until control is passed to the process and returns the wake
// token; the kill token from Shutdown unwinds the goroutine instead.
func (p *Proc) await() uint64 {
	tok := wait(p.wake)
	if tok == killToken {
		panic(errKilled{})
	}
	return tok
}

// nextToken returns a fresh wake token for this proc's next blocking wait.
func (p *Proc) nextToken() uint64 {
	p.waitSeq++
	return p.waitSeq
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields so same-time events with lower
// sequence numbers run first).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	tok := p.nextToken()
	p.e.wakeAt(p, p.e.now.Add(d), PrioNormal, tok)
	p.mustWake(tok)
}

// SleepUntil suspends the process until the absolute time at. If at is in
// the past it yields immediately.
func (p *Proc) SleepUntil(at Time) {
	if at < p.e.now {
		at = p.e.now
	}
	tok := p.nextToken()
	p.e.wakeAt(p, at, PrioNormal, tok)
	p.mustWake(tok)
}

// Yield lets all other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() {
	tok := p.nextToken()
	p.e.wakeAt(p, p.e.now, PrioLate, tok)
	p.mustWake(tok)
}

// mustWake parks until the expected token arrives; any other token is a
// kernel invariant violation.
func (p *Proc) mustWake(expect uint64) {
	got := p.park()
	if got != expect {
		panic(fmt.Sprintf("des: process %q woke with stale token %d (want %d)", p.name, got, expect))
	}
}

// block parks the process and verifies the wake token; it is the primitive
// used by the synchronization types in this package. The caller must have
// arranged exactly one future wakeAt carrying tok.
func (p *Proc) block(tok uint64) {
	p.mustWake(tok)
}
