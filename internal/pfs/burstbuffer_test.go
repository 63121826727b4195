package pfs

import (
	"math"
	"testing"

	"iobehind/internal/des"
)

func bbSetup(cfg BurstBufferConfig) (*des.Engine, *PFS, *BurstBuffer) {
	e := des.NewEngine(1)
	fs := New(e, Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	bb := NewBurstBuffer(e, fs, cfg, Tag{})
	return e, fs, bb
}

// write absorbs bytes from a process: it parks p until the buffer runs
// the write's continuation.
func write(p *des.Proc, bb *BurstBuffer, bytes int64) {
	done := des.NewCompletion(p.Engine())
	bb.Write(bytes, done.Complete)
	done.Wait(p)
}

func TestBurstBufferAbsorbsAtWriteRate(t *testing.T) {
	e, _, bb := bbSetup(BurstBufferConfig{
		Capacity: 1 << 30, WriteRate: 1e9, DrainRate: 100e6,
	})
	var absorbed des.Time
	e.Spawn("app", func(p *des.Proc) {
		write(p, bb, 500e6) // 0.5 s at 1 GB/s
		absorbed = p.Now()
		bb.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := absorbed.Seconds(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("absorbed in %v, want 0.5s", got)
	}
	// The drain continues after the writer finished, capped at DrainRate:
	// 500 MB at 100 MB/s ≈ 5 s.
	if bb.Drained() != 500e6 {
		t.Fatalf("drained = %d", bb.Drained())
	}
	if got := e.Now().Seconds(); got < 5 || got > 5.6 {
		t.Fatalf("drain finished at %v, want ≈5s", got)
	}
	if bb.Level() != 0 {
		t.Fatalf("level = %d after close", bb.Level())
	}
}

func TestBurstBufferBackpressure(t *testing.T) {
	e, _, bb := bbSetup(BurstBufferConfig{
		Capacity: 100e6, WriteRate: 1e9, DrainRate: 50e6, DrainChunk: 10e6,
	})
	var wrote des.Time
	e.Spawn("app", func(p *des.Proc) {
		write(p, bb, 300e6) // 3× the capacity: must wait for the drain
		wrote = p.Now()
		bb.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 200 MB must drain (at 50 MB/s = 4 s) before the last byte fits.
	if got := wrote.Seconds(); got < 3.9 {
		t.Fatalf("write returned at %v, backpressure missing", got)
	}
	if bb.Drained() != 300e6 {
		t.Fatalf("drained = %d", bb.Drained())
	}
}

// TestBurstBufferDrainPaced: the drainer moves each chunk at full speed
// and then sleeps off the rest of the chunk's slot at DrainRate, so at
// every 10 ms probe the drained total is at most one chunk ahead of
// DrainRate·t, and the drain cannot end before every chunk but the last
// has had its slot.
func TestBurstBufferDrainPaced(t *testing.T) {
	const (
		total = 200e6
		rate  = 100e6
		chunk = 16e6
	)
	e, _, bb := bbSetup(BurstBufferConfig{
		Capacity: 1 << 30, WriteRate: 10e9, DrainRate: rate, DrainChunk: chunk,
	})
	e.Spawn("app", func(p *des.Proc) {
		write(p, bb, total)
		bb.Close()
	})
	var end des.Time
	e.Spawn("probe", func(p *des.Proc) {
		for {
			drained := bb.Drained()
			if limit := rate*p.Now().Seconds() + chunk; float64(drained) > limit {
				t.Errorf("drained %d bytes by %v, pacing allows %v", drained, p.Now(), limit)
				return
			}
			if drained == total {
				end = p.Now()
				return
			}
			p.Sleep(10 * des.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if earliest := (total - chunk) / rate; end.Seconds() < earliest {
		t.Fatalf("drain ended by %v, pacing allows no earlier than %vs", end, earliest)
	}
}

// TestBurstBufferWriteContinuation: a write runs as engine events and
// calls its continuation once the last byte is absorbed; a zero-byte
// write calls it before Write returns, and a write while another is
// absorbing panics. The drainer is the only process.
func TestBurstBufferWriteContinuation(t *testing.T) {
	e, _, bb := bbSetup(BurstBufferConfig{
		Capacity: 1 << 30, WriteRate: 1e9, DrainRate: 100e6,
	})
	inline := false
	bb.Write(0, func() { inline = true })
	if !inline {
		t.Fatal("zero-byte write did not continue at once")
	}
	var absorbed des.Time
	bb.Write(500e6, func() { absorbed = e.Now(); bb.Close() })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlapping write did not panic")
			}
		}()
		bb.Write(1, func() {})
	}()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if absorbed != des.Time(500*des.Millisecond) {
		t.Fatalf("absorbed at %v, want 0.5s", absorbed)
	}
	if bb.Drained() != 500e6 {
		t.Fatalf("drained = %d", bb.Drained())
	}
	if n := e.Stats().Procs; n != 1 {
		t.Fatalf("%d processes, want the drainer alone", n)
	}
}

// writeByProcess is the burst-buffer write as a blocking process loop:
// absorb min(remaining, room) per chunk at WriteRate, parking on the
// space completion while the buffer is full. It is the reference the
// event-driven Write is checked against.
func writeByProcess(p *des.Proc, bb *BurstBuffer, bytes int64) {
	for remaining := bytes; remaining > 0; {
		for bb.cfg.Capacity-bb.level <= 0 {
			if bb.space == nil || bb.space.Done() {
				bb.space = des.NewCompletion(bb.e)
			}
			bb.space.Wait(p)
		}
		chunk := min(remaining, bb.cfg.Capacity-bb.level)
		p.Sleep(des.DurationOf(float64(chunk) / bb.cfg.WriteRate))
		bb.level += chunk
		remaining -= chunk
		bb.kickDrainer()
	}
}

// TestBurstBufferWriteMatchesProcessLoop: every write ends at the instant
// the blocking process loop ends it, and the drain ends at the same
// instant, under back-pressure that fills the buffer many times over.
// The rates put absorb and drain instants off any common grid, so a
// write that resumed later than the room freed would show.
func TestBurstBufferWriteMatchesProcessLoop(t *testing.T) {
	for _, cfg := range []BurstBufferConfig{
		{Capacity: 100e6, WriteRate: 1e9, DrainRate: 50e6, DrainChunk: 10e6},
		{Capacity: 37e6, WriteRate: 3e9, DrainRate: 23e6, DrainChunk: 7e6},
		{Capacity: 5e6, WriteRate: 7e8, DrainRate: 3e8, DrainChunk: 3e6},
	} {
		run := func(w func(*des.Proc, *BurstBuffer, int64)) []des.Time {
			e, _, bb := bbSetup(cfg)
			var at []des.Time
			e.Spawn("app", func(p *des.Proc) {
				for _, bytes := range []int64{3e6, 0, 130e6, 11e6} {
					w(p, bb, bytes)
					at = append(at, p.Now())
					p.Sleep(170 * des.Millisecond)
				}
				bb.Close()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if bb.Drained() != 144e6 {
				t.Fatalf("%+v: drained %d", cfg, bb.Drained())
			}
			return append(at, e.Now())
		}
		got, want := run(write), run(writeByProcess)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: instant %d is %v, process loop %v", cfg, i, got[i], want[i])
			}
		}
	}
}

func TestBurstBufferValidation(t *testing.T) {
	if err := (BurstBufferConfig{Capacity: 0, WriteRate: 1, DrainRate: 1}).Validate(); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if err := (BurstBufferConfig{Capacity: 1, WriteRate: 0, DrainRate: 1}).Validate(); err == nil {
		t.Fatal("zero write rate accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBurstBuffer with bad config did not panic")
		}
	}()
	bbSetup(BurstBufferConfig{})
}

func TestRequiredDrainRate(t *testing.T) {
	// 10 GB burst every 100 s: 100 MB/s keeps the buffer level bounded.
	if got := RequiredDrainRate(10e9, 100*des.Second); math.Abs(got-100e6) > 1 {
		t.Fatalf("rate = %v", got)
	}
	if RequiredDrainRate(1, 0) != 0 {
		t.Fatal("zero period")
	}
}

func TestMinCapacity(t *testing.T) {
	// Burst of 1 GB at 10 GB/s (0.1 s) draining at 1 GB/s: peak level is
	// 1 GB − 0.1 GB = 0.9 GB.
	if got := MinCapacity(1e9, 10e9, 1e9); math.Abs(float64(got)-0.9e9) > 1e6 {
		t.Fatalf("capacity = %d", got)
	}
	if MinCapacity(1e9, 1e9, 2e9) != 0 {
		t.Fatal("drain faster than write needs no capacity")
	}
	if MinCapacity(1e9, 0, 1) != 1e9 {
		t.Fatal("degenerate write rate")
	}
}

// TestBurstBufferSteadyStatePeriodic: a periodic burst pattern with
// DrainRate = RequiredDrainRate × 1.1 never overflows a MinCapacity-sized
// buffer, so the writer never blocks — the paper's future-work claim.
func TestBurstBufferSteadyStatePeriodic(t *testing.T) {
	period := des.Duration(10 * des.Second)
	burst := int64(500e6)
	writeRate := 5e9
	drainRate := RequiredDrainRate(burst, period) * 1.1
	// The chunked drainer frees space one chunk at a time, so the buffer
	// needs one chunk of slack on top of the fluid-model minimum.
	chunk := int64(16e6)
	capacity := MinCapacity(burst, writeRate, drainRate) + chunk

	e := des.NewEngine(1)
	fs := New(e, Config{WriteCapacity: 10e9, ReadCapacity: 10e9})
	bb := NewBurstBuffer(e, fs, BurstBufferConfig{
		Capacity: capacity, WriteRate: writeRate, DrainRate: drainRate,
		DrainChunk: chunk,
	}, Tag{})
	absorbTimes := make([]float64, 0, 8)
	e.Spawn("app", func(p *des.Proc) {
		for i := 0; i < 8; i++ {
			start := p.Now()
			write(p, bb, burst)
			absorbTimes = append(absorbTimes, p.Now().Sub(start).Seconds())
			p.SleepUntil(des.Time(int64(period) * int64(i+1)))
		}
		bb.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(burst) / writeRate
	for i, got := range absorbTimes {
		if got > want*1.05 {
			t.Fatalf("burst %d took %v, want %v (writer blocked: drain underprovisioned)",
				i, got, want)
		}
	}
	if bb.Drained() != 8*burst {
		t.Fatalf("drained = %d", bb.Drained())
	}
}
