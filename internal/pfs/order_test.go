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
// otherwise identical runs. With the stable (cap, tag) total order, every
// input permutation must produce bit-identical rates per flow.
func TestAllocateTiedCapsDeterministic(t *testing.T) {
	// One flow capped below its share forces the water-fill path; the
	// 92.7 B/s it leaves does not divide evenly among the four tied flows.
	build := func() []*Flow {
		return []*Flow{
			{tag: Tag{Rank: 0}, cap: 50, remaining: 1e6},
			{tag: Tag{Rank: 1}, cap: 50, remaining: 1e6},
			{tag: Tag{Rank: 2}, cap: 50, remaining: 1e6},
			{tag: Tag{Rank: 3}, cap: 50, remaining: 1e6},
		}
	}
	var want [4]float64
	distinct := false
	for pi, perm := range permute4 {
		c := newChannel(des.NewEngine(1), "test", 100)
		c.flows = append(c.flows, &Flow{tag: Tag{Rank: 4}, cap: 7.3, remaining: 1e6})
		flows := build()
		for _, i := range perm {
			c.flows = append(c.flows, flows[i])
		}
		c.allocate()
		for _, f := range flows {
			got := f.rate
			if pi == 0 {
				want[f.tag.Rank] = got
				distinct = distinct || got != want[0]
				continue
			}
			if got != want[f.tag.Rank] {
				t.Fatalf("perm %v: rank %d rate = %v, want %v (tie-break is input-order dependent)",
					perm, f.tag.Rank, got, want[f.tag.Rank])
			}
		}
	}
	if !distinct {
		t.Fatal("tied flows got bit-identical rates, so the tie-break went untested")
	}
}

// TestSortFlowsTotalOrder checks both sort implementations (insertion
// sort for small sets, sort.Stable above insertionSortMax) produce the
// tag-ordered arrangement for tied caps, at sizes straddling the
// cutover.
func TestSortFlowsTotalOrder(t *testing.T) {
	c := newChannel(des.NewEngine(1), "test", 100)
	for _, n := range []int{2, insertionSortMax, insertionSortMax + 1, 4 * insertionSortMax} {
		flows := make([]*Flow, n)
		for i := range flows {
			// Two tied caps interleaved over descending ranks.
			flows[i] = &Flow{tag: Tag{Rank: n - 1 - i}, cap: float64(2 + i%2)}
		}
		c.sortFlows(flows)
		for i := 1; i < n; i++ {
			a, b := flows[i-1], flows[i]
			if a.cap > b.cap || (a.cap == b.cap && a.tag.Rank >= b.tag.Rank) {
				t.Fatalf("n=%d: flows[%d..%d] out of order: (cap %v, rank %d) before (cap %v, rank %d)",
					n, i-1, i, a.cap, a.tag.Rank, b.cap, b.tag.Rank)
			}
		}
	}
}

// TestWaterfillRatesUnchangedByScratchReuse replays the same flow set
// through many recomputes and checks the scratch-reusing allocator keeps
// producing the original rates (no state leaks between passes).
func TestWaterfillRatesUnchangedByScratchReuse(t *testing.T) {
	c := newChannel(des.NewEngine(1), "test", 100)
	for i := 0; i < 6; i++ {
		capv := Unlimited
		if i%2 == 0 {
			capv = float64(10 * (i + 1))
		}
		c.flows = append(c.flows, &Flow{
			tag: Tag{Rank: i}, cap: capv, remaining: 1e9,
		})
	}
	c.waterfill()
	var first []float64
	for _, f := range c.flows {
		first = append(first, f.rate)
	}
	total := 0.0
	for _, r := range first {
		total += r
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("rates not work-conserving: total %v", total)
	}
	for round := 0; round < 50; round++ {
		c.waterfill()
		for i, f := range c.flows {
			if f.rate != first[i] {
				t.Fatalf("round %d: flow %d rate drifted %v -> %v", round, i, first[i], f.rate)
			}
		}
	}
}
