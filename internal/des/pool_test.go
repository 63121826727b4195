package des

import (
	"testing"
)

// TestStaleHandleAfterRecycle pins the generation-counter guarantee: a
// cancel handle retained past its event's execution must not kill the
// unrelated event that reuses the pooled object.
func TestStaleHandleAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	var ranFirst, ranSecond bool
	stale := e.Schedule(0, PrioNormal, func() { ranFirst = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranFirst {
		t.Fatal("first event did not run")
	}
	// The pool now holds the first event's object; the next Schedule must
	// reuse it (single-object pool).
	h := e.Schedule(e.Now(), PrioNormal, func() { ranSecond = true })
	if h.ev != stale.ev {
		t.Fatalf("pool did not recycle: new object %p, old %p", h.ev, stale.ev)
	}
	stale.Cancel() // must be a no-op: generation moved on
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranSecond {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if got := e.Stats().EventsPooled; got != 1 {
		t.Fatalf("EventsPooled = %d, want 1", got)
	}
}

// TestCancelAfterFireIsNoOp covers cancelling an event whose object has
// not yet been recycled into a new activation.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	h := e.Schedule(0, PrioNormal, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h.Cancel() // fired already: generation mismatch, no effect
	h.Cancel()
	if ran != 1 || e.dead != 0 {
		t.Fatalf("ran = %d, dead = %d", ran, e.dead)
	}
	var zero Handle
	zero.Cancel() // the zero Handle is inert
}

// TestDeadCompaction drives the cancel-churn pattern until the engine
// compacts the heap, and checks both the stat and that live events
// survive compaction in order.
func TestDeadCompaction(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(i)*Time(Second), PrioNormal, func() { order = append(order, i) })
	}
	// Churn far past the compaction threshold: every cancelled event is a
	// corpse the engine must evict without touching the 10 live ones.
	for i := 0; i < 10*compactThreshold; i++ {
		h := e.Schedule(Time(Hour), PrioNormal, func() { t.Error("dead event fired") })
		h.Cancel()
	}
	st := e.Stats()
	if st.DeadCompactions == 0 {
		t.Fatalf("no compactions after %d cancellations", 10*compactThreshold)
	}
	if n := e.heap.len(); n > 10+2*compactThreshold {
		t.Fatalf("heap still holds %d entries after compaction", n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d live events, want 10", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d; compaction broke heap ordering", i, got)
		}
	}
}

// TestMaxHeapCountsLiveEventsOnly pins the Stats fix: cancelled events
// awaiting compaction must not inflate the reported queue-pressure peak.
func TestMaxHeapCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 8; i++ {
		h := e.Schedule(Time(i)*Time(Second), PrioNormal, fn)
		if i > 0 { // keep one live event so Run has work to do
			h.Cancel()
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.MaxHeap != 1 {
		t.Fatalf("MaxHeap = %d, want 1 (7 of 8 events were dead)", s.MaxHeap)
	}
	if s.EventsRun != 1 {
		t.Fatalf("EventsRun = %d, want 1", s.EventsRun)
	}
}

// TestScheduleSteadyStateAllocs is the allocation guard for the tentpole:
// once the pool is warm, a Schedule + pop cycle performs zero heap
// allocations, so no future change can silently reintroduce per-event
// garbage on the kernel hot path.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the event pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), PrioNormal, fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(e.Now(), PrioNormal, fn)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Schedule+pop = %v allocs/op, want 0", avg)
	}
}

// TestCancelSteadyStateAllocs guards the full schedule/cancel/compact
// cycle: the reschedule-per-recompute pattern must stay allocation-free
// even while compactions run.
func TestCancelSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 2*compactThreshold; i++ {
		h := e.Schedule(Time(Hour), PrioNormal, fn)
		h.Cancel()
	}
	avg := testing.AllocsPerRun(10*compactThreshold, func() {
		h := e.Schedule(Time(Hour), PrioNormal, fn)
		h.Cancel()
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel = %v allocs/op, want 0", avg)
	}
	if e.Stats().DeadCompactions == 0 {
		t.Fatal("guard never exercised the compaction path")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
