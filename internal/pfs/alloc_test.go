package pfs

import (
	"testing"

	"iobehind/internal/des"
)

// churnSetup builds a file system whose write channel carries a standing
// population of 24 flows and warms every buffer and the engine's event
// pool far enough that free-list growth has flattened out. Each flow's
// projected finish (about 2.4e8 s) lies inside the projection horizon, so
// every recompute schedules a completion event and cancels the previous
// one.
func churnSetup() (*PFS, *channel) {
	e := des.NewEngine(1)
	p := New(e, Config{WriteCapacity: 100, ReadCapacity: 100})
	c := p.chans[Write]
	for i := 0; i < 24; i++ {
		c.start(1e9, Tag{Job: i % 2, Node: i % 5, Rank: i})
	}
	// Warm-up: enough recomputes to grow the heap and the event free list
	// (through several dead-event compactions) to their steady-state
	// sizes.
	for i := 0; i < 512; i++ {
		c.recompute()
	}
	return p, c
}

// TestRecomputeSteadyStateAllocs is the channel-side allocation guard:
// once buffers and pool are warm, a full recompute — integrate, heap
// check, completion-event reschedule — must not allocate. This is what
// keeps thousand-rank-phase sweeps off the garbage collector.
func TestRecomputeSteadyStateAllocs(t *testing.T) {
	_, c := churnSetup()
	avg := testing.AllocsPerRun(500, func() { c.recompute() })
	if avg != 0 {
		t.Fatalf("recompute = %v allocs/op, want 0", avg)
	}
	if c.e.Stats().DeadCompactions == 0 {
		t.Fatal("guard never exercised the dead-event compaction path")
	}
}

// TestFaultChurnSteadyStateAllocs drives the public-API version of the
// cancel-churn pattern (BenchmarkCancelChurn) through SetFaultFactors,
// the production path that changes a channel mid-flight, and pins it to
// the flow-set bookkeeping only.
func TestFaultChurnSteadyStateAllocs(t *testing.T) {
	p, c := churnSetup()
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
