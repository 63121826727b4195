package des

import (
	"testing"
)

// BenchmarkEventThroughput measures raw function-event dispatch.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var fire func(i int)
	fire = func(i int) {
		if i < b.N {
			e.After(Microsecond, func() { fire(i + 1) })
		}
	}
	b.ResetTimer()
	fire(0)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures the park/wake goroutine handoff: the cost
// of one process Sleep round trip.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyProcsRoundRobin measures scheduling across a wide process
// set (one wake per proc per virtual tick).
func BenchmarkManyProcsRoundRobin(b *testing.B) {
	b.ReportAllocs()
	const procs = 1024
	e := NewEngine(1)
	rounds := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(Millisecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleCancel measures the schedule/cancel cycle that
// channel.recompute performs on every reallocation: a far-future event is
// scheduled and immediately cancelled, leaving a dead entry behind. The
// engine must keep the pending queue from filling with corpses (the
// dead-event compaction path) and keep the cycle allocation-free.
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fire := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cancel := e.Schedule(Time(Hour), PrioNormal, fire)
		cancel.Cancel()
	}
	b.StopTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcPingPong measures the switch between two processes: they
// sleep to interleaved instants, so every resume hands control to the
// other process and none is a process resuming itself.
func BenchmarkProcPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	for i, name := range []string{"ping", "pong"} {
		e.SpawnAt(Time(i), name, func(p *Proc) {
			for j := 0; j < b.N; j++ {
				p.Sleep(2)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
