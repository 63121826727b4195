package pfs

import (
	"math"
	"testing"

	"iobehind/internal/des"
)

// permute4 is every order of four indices — small enough to enumerate.
var permute4 = [][]int{
	{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}, {0, 2, 1, 3}, {3, 0, 2, 1},
}

// TestAllocateTiedCapsDeterministic pins the water-filling tie-break.
// Flows with equal caps above their share each take the equal share of
// what is left when they are visited, and those quotients differ in the
// low bits from one visit position to the next. Ties used to be ordered
// by sort.Slice, whose placement depends on incidental input order, so a
// flow's rate (and thus its projected completion) could differ between
// otherwise identical runs. The capped set is held in the total
// (cap, tag) order, so every start order must produce bit-identical rates
// per flow.
func TestAllocateTiedCapsDeterministic(t *testing.T) {
	var want [4]float64
	distinct := false
	for pi, perm := range permute4 {
		c := newChannel(des.NewEngine(1), "test", 100)
		// One flow capped below its share forces the water-fill; the
		// 92.7 B/s it leaves does not divide evenly among the four tied
		// flows.
		c.start(1e6, 7.3, Tag{Rank: 4})
		flows := make([]*Flow, 4)
		for _, i := range perm {
			flows[i] = c.start(1e6, 50, Tag{Rank: i})
		}
		c.recompute()
		for _, f := range flows {
			got := f.Rate()
			if pi == 0 {
				want[f.tag.Rank] = got
				distinct = distinct || got != want[0]
				continue
			}
			if got != want[f.tag.Rank] {
				t.Fatalf("perm %v: rank %d rate = %v, want %v (tie-break is start-order dependent)",
					perm, f.tag.Rank, got, want[f.tag.Rank])
			}
		}
	}
	if !distinct {
		t.Fatal("tied flows got bit-identical rates, so the tie-break went untested")
	}
}

// TestSortFlowsTotalOrder checks that the capped set stays sorted in the
// (cap, tag) total order whatever order its flows start in, and that
// flows with equal cap and tag keep their start order.
func TestSortFlowsTotalOrder(t *testing.T) {
	for _, n := range []int{2, 32, 33, 128} {
		c := newChannel(des.NewEngine(1), "test", 100)
		for i := 0; i < n; i++ {
			// Two tied caps interleaved over descending ranks, every
			// flow started twice.
			tag := Tag{Rank: n - 1 - i}
			c.start(1e6, float64(2+i%2), tag)
			c.start(1e6, float64(2+i%2), tag)
		}
		for i := 1; i < len(c.capped); i++ {
			a, b := c.capped[i-1], c.capped[i]
			if flowOrderLess(b, a) || (!flowOrderLess(a, b) && a.seq > b.seq) {
				t.Fatalf("n=%d: capped[%d..%d] out of order: (cap %v, rank %d, seq %d) before (cap %v, rank %d, seq %d)",
					n, i-1, i, a.cap, a.tag.Rank, a.seq, b.cap, b.tag.Rank, b.seq)
			}
		}
	}
}

// TestWaterfillRatesUnchangedByScratchReuse replays the same flow set
// through many recomputes and checks the allocator keeps producing the
// original rates (no state leaks between passes).
func TestWaterfillRatesUnchangedByScratchReuse(t *testing.T) {
	c := newChannel(des.NewEngine(1), "test", 100)
	var flows []*Flow
	for i := 0; i < 6; i++ {
		capv := Unlimited
		if i%2 == 0 {
			capv = float64(10 * (i + 1))
		}
		flows = append(flows, c.start(1e9, capv, Tag{Rank: i}))
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

// TestHeapPopsInVirtualFinishOrder checks the uncapped heap against a
// brute-force minimum: flows pop in (virtual finish, start) order, ties
// on virtual finish included.
func TestHeapPopsInVirtualFinishOrder(t *testing.T) {
	c := newChannel(des.NewEngine(1), "test", 100)
	var want []*Flow
	for i := 0; i < 200; i++ {
		// Few distinct sizes, so many virtual finishes tie.
		f := c.start(float64(1+(i*7919)%13), Unlimited, Tag{Rank: i})
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
	c := newChannel(des.NewEngine(1), "test", 3)
	f := c.start(1, Unlimited, Tag{})
	c.recompute()
	at := projectFinish(0, f.vfinish, c.level)
	c.served = math.Nextafter(f.vfinish, 0)
	if c.uncappedDone(f, at-1) {
		t.Fatal("flow done before its projected finish")
	}
	if !c.uncappedDone(f, at) {
		t.Fatal("flow not done at its projected finish")
	}
}

// TestServedResetsWhenDrained checks that the served counter and the
// level return to zero once the last uncapped flow finishes, so the
// counter's magnitude stays bounded by one busy period.
func TestServedResetsWhenDrained(t *testing.T) {
	e := des.NewEngine(1)
	c := newChannel(e, "test", 3)
	e.Spawn("w", func(proc *des.Proc) {
		for i := 0; i < 3; i++ {
			f := c.start(10, Unlimited, Tag{})
			c.start(7, 5, Tag{Rank: 1}).Wait(proc)
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
