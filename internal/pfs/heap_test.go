package pfs

import (
	"math"
	"testing"

	"iobehind/internal/des"
)

// TestHeapPopsInVirtualFinishOrder checks the flow heap against a
// brute-force minimum: flows pop in (virtual finish, start) order, ties
// on virtual finish included.
func TestHeapPopsInVirtualFinishOrder(t *testing.T) {
	c := newChannel(des.NewEngine(1), 100)
	var want []*Flow
	for i := 0; i < 200; i++ {
		// Few distinct sizes, so many virtual finishes tie.
		f := c.start(float64(1+(i*7919)%13), Tag{Rank: i})
		want = append(want, f)
	}
	for len(want) > 0 {
		best := 0
		for i, f := range want {
			if heapLess(f, want[best]) {
				best = i
			}
		}
		if got := c.pop(); got != want[best] {
			t.Fatalf("popped (vfinish %v, seq %d), want (vfinish %v, seq %d)",
				got.vfinish, got.seq, want[best].vfinish, want[best].seq)
		}
		want = append(want[:best], want[best+1:]...)
	}
}

// TestUncappedDoneByProjection pins the rounding guard: a flow whose
// projected finish has come is done even when the served counter falls a
// hair short of its virtual finish, and not before that instant.
func TestUncappedDoneByProjection(t *testing.T) {
	c := newChannel(des.NewEngine(1), 3)
	f := c.start(1, Tag{})
	c.recompute()
	at := projectFinish(0, f.vfinish, c.level)
	c.served = math.Nextafter(f.vfinish, 0)
	if c.flowDone(f, at-1) {
		t.Fatal("flow done before its projected finish")
	}
	if !c.flowDone(f, at) {
		t.Fatal("flow not done at its projected finish")
	}
}

// TestServedResetsWhenDrained checks that the served counter and the
// level return to zero once the last flow finishes, so the
// counter's magnitude stays bounded by one busy period.
func TestServedResetsWhenDrained(t *testing.T) {
	e := des.NewEngine(1)
	c := newChannel(e, 3)
	e.Spawn("w", func(proc *des.Proc) {
		for i := 0; i < 3; i++ {
			f := c.start(10, Tag{})
			c.start(7, Tag{Rank: 1}).Wait(proc)
			f.Wait(proc)
			if c.served != 0 || c.level != 0 {
				t.Errorf("round %d: served %v, level %v after drain, want 0", i, c.served, c.level)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaterfillRatesUnchangedByScratchReuse replays the same flow set
// through many recomputes and checks the allocator keeps producing the
// original rates (no state leaks between passes).
func TestWaterfillRatesUnchangedByScratchReuse(t *testing.T) {
	c := newChannel(des.NewEngine(1), 100)
	var flows []*Flow
	for i := 0; i < 6; i++ {
		flows = append(flows, c.start(float64(1e9*(i+1)), Tag{Rank: i}))
	}
	c.recompute()
	var first []float64
	total := 0.0
	for _, f := range flows {
		first = append(first, f.Rate())
		total += f.Rate()
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("rates not work-conserving: total %v", total)
	}
	for round := 0; round < 50; round++ {
		c.recompute()
		for i, f := range flows {
			if f.Rate() != first[i] {
				t.Fatalf("round %d: flow %d rate drifted %v -> %v", round, i, first[i], f.Rate())
			}
		}
	}
}
