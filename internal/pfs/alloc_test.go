package pfs

import (
	"testing"

	"iobehind/internal/des"
)

// churnSetup builds a channel with a standing mixed-cap flow population
// (off both allocator fast paths) and warms every scratch buffer and the
// engine's event pool far enough that free-list growth has flattened out.
func churnSetup() *channel {
	e := des.NewEngine(1)
	c := newChannel(e, "test", 100)
	for i := 0; i < 24; i++ {
		capv := Unlimited
		if i%2 == 0 {
			capv = float64(3 + i)
		}
		c.flows = append(c.flows, &Flow{
			tag:       Tag{Job: i % 2, Node: i % 5, Rank: i},
			cap:       capv,
			remaining: 1e12,
			done:      des.NewCompletion(e),
		})
	}
	// Warm-up: enough recomputes to grow the heap, the event free list
	// (through several dead-event compactions), and the channel scratch
	// to their steady-state sizes.
	for i := 0; i < 512; i++ {
		c.recompute()
	}
	return c
}

// TestRecomputeSteadyStateAllocs is the channel-side allocation guard:
// once scratch and pool are warm, a full recompute — integrate, water-
// fill with the sorted visit order, completion-event reschedule — must
// not allocate. This is what keeps thousand-rank-phase sweeps off the
// garbage collector.
func TestRecomputeSteadyStateAllocs(t *testing.T) {
	c := churnSetup()
	avg := testing.AllocsPerRun(500, func() { c.recompute() })
	if avg != 0 {
		t.Fatalf("recompute = %v allocs/op, want 0", avg)
	}
	if c.e.Stats().DeadCompactions == 0 {
		t.Fatal("guard never exercised the dead-event compaction path")
	}
}

// TestSetCapChurnSteadyStateAllocs drives the public-API version of the
// cancel-churn pattern (BenchmarkCancelChurn) through SetCap and pins it
// to the flow-set bookkeeping only.
func TestSetCapChurnSteadyStateAllocs(t *testing.T) {
	c := churnSetup()
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		f := c.flows[i%len(c.flows)]
		f.cap = float64(3 + i%11)
		i++
		c.recompute()
	})
	if avg != 0 {
		t.Fatalf("SetCap churn = %v allocs/op, want 0", avg)
	}
}
