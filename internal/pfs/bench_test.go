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
			p.Transfer(proc, Write, 1<<20, Tag{})
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentFlows measures a synchronized burst of many equal
// flows, which all finish in one instant.
func BenchmarkConcurrentFlows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := des.NewEngine(1)
		p := New(e, Config{WriteCapacity: 100e9, ReadCapacity: 100e9})
		const flows = 4096
		for j := 0; j < flows; j++ {
			j := j
			e.Spawn("w", func(proc *des.Proc) {
				p.Transfer(proc, Write, 64<<20, Tag{Rank: j})
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancelChurn measures repeated capacity changes against a
// standing flow population: every SetFaultFactors call forces a
// recompute, which cancels the pending completion event and schedules a
// replacement. This is the cancel-heavy pattern that strands dead events
// in the engine queue and re-rates the channel without any flow
// completing.
func BenchmarkCancelChurn(b *testing.B) {
	b.ReportAllocs()
	e := des.NewEngine(1)
	p := New(e, Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	const flows = 64
	for i := 0; i < flows; i++ {
		// Large enough that no flow completes during the benchmark.
		p.StartFlow(Write, 1<<40, Tag{Rank: i})
	}
	e.Spawn("churn", func(proc *des.Proc) {
		for i := 0; i < b.N; i++ {
			p.SetFaultFactors(0.1*float64(1+i%9), 1)
			proc.Sleep(des.Millisecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStaggeredFlows measures the shape every figure drives: n
// flows that start at distinct instants and overlap, so every
// start and every finish is its own recompute. One process starts all the
// flows, so the time is the channel's rather than process spawns'. Its
// ns/op grows about linearly in n; a return to O(flows) work per event
// shows up as quadratic growth.
func BenchmarkStaggeredFlows(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(1)
				p := New(e, Config{WriteCapacity: 100e9, ReadCapacity: 100e9})
				e.Spawn("starter", func(proc *des.Proc) {
					for j := 0; j < n; j++ {
						p.StartFlow(Write, 64<<20, Tag{Rank: j})
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
