package des

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDurationOf(t *testing.T) {
	if got := DurationOf(1.5); got != 1500*Millisecond {
		t.Fatalf("DurationOf(1.5) = %v, want 1.5s", got)
	}
	if got := DurationOf(-3); got != 0 {
		t.Fatalf("DurationOf(-3) = %v, want 0", got)
	}
	if got := DurationOf(0); got != 0 {
		t.Fatalf("DurationOf(0) = %v, want 0", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(2 * Second)
	if t0.Seconds() != 2 {
		t.Fatalf("Seconds = %v, want 2", t0.Seconds())
	}
	if d := t0.Sub(Time(Second)); d != Second {
		t.Fatalf("Sub = %v, want 1s", d)
	}
	if s := (1500 * Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Duration.Seconds = %v, want 1.5", s)
	}
	if Time(1500*Millisecond).String() != "1.500s" {
		t.Fatalf("Time.String = %q", Time(1500*Millisecond).String())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(Time(2*Second), PrioNormal, func() { order = append(order, "b") })
	e.Schedule(Time(1*Second), PrioNormal, func() { order = append(order, "a") })
	e.Schedule(Time(2*Second), PrioEarly, func() { order = append(order, "b-early") })
	e.Schedule(Time(2*Second), PrioLate, func() { order = append(order, "b-late") })
	e.Schedule(Time(2*Second), PrioNormal, func() { order = append(order, "b2") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a,b-early,b,b2,b-late"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if e.Now() != Time(2*Second) {
		t.Fatalf("final time = %v, want 2s", e.Now())
	}
}

func TestScheduleCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	cancel := e.After(Second, func() { fired = true })
	cancel.Cancel()
	cancel.Cancel() // idempotent
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.Schedule(0, PrioNormal, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleepDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var order []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(i) * Second)
				order = append(order, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				p.Sleep(Second)
				order = append(order, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		if got := run(); strings.Join(got, ",") != strings.Join(first, ",") {
			t.Fatalf("non-deterministic order: %v vs %v", got, first)
		}
	}
	if first[0] != "p0@0.000s" || first[len(first)-1] != "p3@4.000s" {
		t.Fatalf("unexpected schedule: %v", first)
	}
}

func TestSleepNegativeYields(t *testing.T) {
	e := NewEngine(1)
	done := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-5 * Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", p.Now())
		}
		p.SleepUntil(Time(-1)) // past: immediate
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestYieldRunsSameTimeEventsFirst(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("p", func(p *Proc) {
		p.Engine().Schedule(p.Now(), PrioNormal, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "event,proc" {
		t.Fatalf("order = %v", order)
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.SpawnAt(3*Time(Second), "late", func(p *Proc) { at = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(3*Second) {
		t.Fatalf("started at %v, want 3s", at)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

func TestCompletion(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(2 * Second)
		c.Complete()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, at := range woke {
		if at != Time(2*Second) {
			t.Fatalf("waiter woke at %v, want 2s", at)
		}
	}
	if !c.Done() || c.At() != Time(2*Second) {
		t.Fatalf("completion state: done=%v at=%v", c.Done(), c.At())
	}
	// Waiting after completion returns immediately.
	e2 := NewEngine(1)
	c2 := NewCompletion(e2)
	e2.Spawn("late", func(p *Proc) {
		c2.Complete()
		c2.Wait(p)
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionReleasesWaitersAndThenInOrder: process waiters and Then
// continuations registered alternately on one completion are released in
// registration order, all at the completion instant.
func TestCompletionReleasesWaitersAndThenInOrder(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	var got []string
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("%d", i)
		at := Time(i) * Time(Millisecond)
		if i%2 == 0 {
			e.SpawnAt(at, "w"+name, func(p *Proc) {
				c.Wait(p)
				got = append(got, fmt.Sprintf("w%s@%v", name, p.Now()))
			})
			continue
		}
		e.Schedule(at, PrioNormal, func() {
			c.Then(func() { got = append(got, fmt.Sprintf("f%s@%v", name, e.Now())) })
		})
	}
	e.Schedule(Time(Second), PrioNormal, c.Complete)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[w0@1.000s f1@1.000s w2@1.000s f3@1.000s w4@1.000s f5@1.000s]"
	if fmt.Sprint(got) != want {
		t.Fatalf("release order %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Then on a fired completion did not panic")
		}
	}()
	c.Then(func() {})
}

func TestCompletionDoubleCompletePanics(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	e.Spawn("p", func(p *Proc) {
		c.Complete()
		defer func() {
			if recover() == nil {
				t.Error("double Complete did not panic")
			}
		}()
		c.Complete()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesParties(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(e, 3)
	var releases []Time
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Sleep(Duration(i+1) * Second)
				b.Await(p, 100*Millisecond)
				releases = append(releases, p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 6 {
		t.Fatalf("releases = %v", releases)
	}
	// Round 1: slowest arrives at 3s, release at 3.1s. Round 2: slowest
	// arrives 3.1+3 = 6.1s, release at 6.2s.
	for i, at := range releases {
		want := Time(3100 * Millisecond)
		if i >= 3 {
			want = Time(6200 * Millisecond)
		}
		if at != want {
			t.Fatalf("release %d at %v, want %v", i, at, want)
		}
	}
}

func TestBarrierPartyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(NewEngine(1), 0)
}

func TestStalledAndShutdown(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	e.Spawn("fine", func(p *Proc) { p.Sleep(Second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	stalled := e.Stalled()
	if len(stalled) != 1 || stalled[0].Name() != "stuck" {
		t.Fatalf("stalled = %v", stalled)
	}
	e.Shutdown()
	if len(e.Stalled()) != 0 {
		t.Fatal("Shutdown left stalled procs")
	}
}

func TestStopAndResume(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Second)
			ticks++
			if ticks == 2 {
				p.Engine().Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("ticks after Stop = %d, want 2", ticks)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks after resume = %d, want 5", ticks)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewEngine(7).Rand().Int63(), NewEngine(7).Rand().Int63()
	if a != b {
		t.Fatalf("same-seed engines diverge: %d vs %d", a, b)
	}
}

// TestHeapOrderingProperty checks, with random event sets, that pops come
// out sorted by (time, prio, seq).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []int16, prios []int8) bool {
		var h eventHeap
		n := len(times)
		if len(prios) < n {
			n = len(prios)
		}
		evs := make([]*event, 0, n)
		for i := 0; i < n; i++ {
			at := Time(times[i])
			if at < 0 {
				at = -at
			}
			ev := &event{at: at, prio: int32(prios[i]), seq: uint64(i)}
			evs = append(evs, ev)
			h.push(ev)
		}
		sort.SliceStable(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.seq < b.seq
		})
		for _, want := range evs {
			if got := h.pop(); got != want {
				return false
			}
		}
		return h.pop() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine(3)
	const n = 2000
	var finished int
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(Duration(1+p.ID()%17) * Millisecond)
			}
			finished++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine(1)
	if s := e.Stats(); s.EventsRun != 0 || s.Procs != 0 {
		t.Fatalf("fresh stats: %+v", s)
	}
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) { p.Sleep(Second) })
	}
	cancel := e.After(Second, func() {})
	cancel.Cancel() // dead events do not count as run (or toward MaxHeap)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Procs != 3 {
		t.Fatalf("procs = %d", s.Procs)
	}
	// 3 start wakeups + 3 sleep wakeups = 6 events.
	if s.EventsRun != 6 {
		t.Fatalf("events = %d, want 6", s.EventsRun)
	}
	if s.MaxHeap < 3 {
		t.Fatalf("maxHeap = %d", s.MaxHeap)
	}
	if s.Now != Time(Second) {
		t.Fatalf("now = %v", s.Now)
	}
}

// TestShutdownUnstartedProc: a process whose start event never fired
// must be unwound by Shutdown without running its body, and without
// Shutdown executing any event.
func TestShutdownUnstartedProc(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.SpawnAt(Time(5*Second), "late", func(p *Proc) {
		ran = true
		p.Sleep(Second)
	})
	e.Schedule(0, PrioNormal, e.Stop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Stalled()); n != 1 {
		t.Fatalf("stalled before Shutdown = %d, want 1", n)
	}
	events := e.Stats().EventsRun
	e.Shutdown()
	if ran {
		t.Fatal("Shutdown ran the body of a process that never started")
	}
	if s := e.Stalled(); len(s) != 0 {
		t.Fatalf("Shutdown left stalled procs: %v", s)
	}
	if got := e.Stats().EventsRun; got != events {
		t.Fatalf("Shutdown executed %d events", got-events)
	}
}

// TestEventPanicWhileProcParked: a function event that panics while
// processes are parked (it runs on the goroutine of the process that just
// parked) becomes Run's error, and Shutdown still reaps every process.
func TestEventPanicWhileProcParked(t *testing.T) {
	e := NewEngine(1)
	never := NewCompletion(e)
	e.Spawn("server", func(p *Proc) { never.Wait(p) })
	resumed := false
	e.Spawn("client", func(p *Proc) {
		p.Sleep(Second)
		resumed = true
	})
	e.After(Second/2, func() { panic("boom in event") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom in event") {
		t.Fatalf("err = %v, want the event's panic", err)
	}
	if resumed {
		t.Fatal("the run went on past the panicking event")
	}
	if n := len(e.Stalled()); n != 2 {
		t.Fatalf("stalled = %d, want 2", n)
	}
	e.Shutdown()
	if s := e.Stalled(); len(s) != 0 {
		t.Fatalf("Shutdown left stalled procs: %v", s)
	}
}

// TestEventPanicBeforeAnyProc: a function event that panics on Run's own
// goroutine, before any process has started, is reported the same way;
// Shutdown then unwinds the unstarted process without running it.
func TestEventPanicBeforeAnyProc(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.SpawnAt(Time(Second), "late", func(p *Proc) { ran = true })
	e.Schedule(0, PrioNormal, func() { panic("boom at start") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom at start") {
		t.Fatalf("err = %v, want the event's panic", err)
	}
	e.Shutdown()
	if ran {
		t.Fatal("process ran after the run failed")
	}
	if s := e.Stalled(); len(s) != 0 {
		t.Fatalf("Shutdown left stalled procs: %v", s)
	}
}

// TestShutdownUnwindsParkInDeferred: a process that parks in a deferred
// function while Shutdown unwinds it is unwound again at that park, so
// Shutdown never runs events and the process still finishes.
func TestShutdownUnwindsParkInDeferred(t *testing.T) {
	e := NewEngine(1)
	c := NewCompletion(e)
	after := false
	e.Spawn("server", func(p *Proc) {
		defer func() {
			p.Sleep(Second)
			after = true
		}()
		c.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	events := e.Stats().EventsRun
	e.Shutdown()
	if after {
		t.Fatal("the deferred park returned during Shutdown")
	}
	if got := e.Stats().EventsRun; got != events {
		t.Fatalf("Shutdown executed %d events", got-events)
	}
	if s := e.Stalled(); len(s) != 0 {
		t.Fatalf("Shutdown left stalled procs: %v", s)
	}
}
