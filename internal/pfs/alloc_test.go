package pfs

import (
	"testing"

	"iobehind/internal/des"
)

// churnSetup builds a file system whose write channel carries a standing
// population of 24 flows — every other one capped when mixed, so the
// capped water-fill runs next to the heap — and warms every buffer and
// the engine's event pool far enough that free-list growth has flattened
// out.
func churnSetup(mixed bool) (*PFS, *channel) {
	e := des.NewEngine(1)
	p := New(e, Config{WriteCapacity: 100, ReadCapacity: 100})
	c := p.chans[Write]
	for i := 0; i < 24; i++ {
		capv := Unlimited
		if mixed && i%2 == 0 {
			capv = float64(3 + i)
		}
		c.start(1e12, capv, Tag{Job: i % 2, Node: i % 5, Rank: i})
	}
	// Warm-up: enough recomputes to grow the heap, the event free list
	// (through several dead-event compactions), and the channel scratch
	// to their steady-state sizes.
	for i := 0; i < 512; i++ {
		c.recompute()
	}
	return p, c
}

// TestRecomputeSteadyStateAllocs is the channel-side allocation guard:
// once buffers and pool are warm, a full recompute — integrate, heap
// check, capped water-fill, completion-event reschedule — must not
// allocate, on an uncapped-only channel and on a mixed one. This is what
// keeps thousand-rank-phase sweeps off the garbage collector.
func TestRecomputeSteadyStateAllocs(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		_, c := churnSetup(mixed)
		avg := testing.AllocsPerRun(500, func() { c.recompute() })
		if avg != 0 {
			t.Fatalf("mixed=%v: recompute = %v allocs/op, want 0", mixed, avg)
		}
		if c.e.Stats().DeadCompactions == 0 {
			t.Fatalf("mixed=%v: guard never exercised the dead-event compaction path", mixed)
		}
	}
}

// TestFaultChurnSteadyStateAllocs drives the public-API version of the
// cancel-churn pattern (BenchmarkCancelChurn) through SetFaultFactors,
// the production path that changes a channel mid-flight, and pins it to
// the flow-set bookkeeping only.
func TestFaultChurnSteadyStateAllocs(t *testing.T) {
	p, c := churnSetup(true)
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		p.SetFaultFactors(0.1*float64(1+i%9), 1)
		i++
		c.recompute()
	})
	if avg != 0 {
		t.Fatalf("fault churn = %v allocs/op, want 0", avg)
	}
}
