package pfs

import (
	"fmt"
	"testing"

	"iobehind/internal/des"
)

// BenchmarkFlowChurn measures sequential flow start/complete cycles on an
// otherwise idle channel.
func BenchmarkFlowChurn(b *testing.B) {
	b.ReportAllocs()
	e := des.NewEngine(1)
	p := New(e, Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	e.Spawn("w", func(proc *des.Proc) {
		for i := 0; i < b.N; i++ {
			p.Transfer(proc, Write, 1<<20, Unlimited, Tag{})
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentFlows measures the allocator under a synchronized
// burst of many equal flows (the uniform fast path).
func BenchmarkConcurrentFlows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := des.NewEngine(1)
		p := New(e, Config{WriteCapacity: 100e9, ReadCapacity: 100e9})
		const flows = 4096
		for j := 0; j < flows; j++ {
			j := j
			e.Spawn("w", func(proc *des.Proc) {
				p.Transfer(proc, Write, 64<<20, Unlimited, Tag{Rank: j})
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancelChurn measures repeated cap changes against a standing
// flow population: every SetCap forces a recompute, which cancels the
// pending completion event and schedules a replacement. This is the
// cancel-heavy pattern that strands dead events in the engine queue and
// re-runs the water-filling allocator without any flow completing.
func BenchmarkCancelChurn(b *testing.B) {
	b.ReportAllocs()
	e := des.NewEngine(1)
	p := New(e, Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	const flows = 64
	fs := make([]*Flow, flows)
	for i := range fs {
		// Large enough that no flow completes during the benchmark; the
		// mixed caps keep the allocator off its uniform fast path.
		fs[i] = p.StartFlow(Write, 1<<40, 1e7*float64(1+i%5), Tag{Rank: i})
	}
	e.Spawn("churn", func(proc *des.Proc) {
		for i := 0; i < b.N; i++ {
			fs[i%flows].SetCap(1e6 * float64(1+i%9))
			proc.Sleep(des.Millisecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStaggeredFlows measures the shape every figure drives: n
// uncapped flows that start at distinct instants and overlap, so every
// start and every finish is its own recompute over the active set. One
// process starts all the flows, so the time is the channel's rather than
// process spawns'.
func BenchmarkStaggeredFlows(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(1)
				p := New(e, Config{WriteCapacity: 100e9, ReadCapacity: 100e9})
				e.Spawn("starter", func(proc *des.Proc) {
					for j := 0; j < n; j++ {
						p.StartFlow(Write, 64<<20, Unlimited, Tag{Rank: j})
						proc.Sleep(des.Microsecond)
					}
				})
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
