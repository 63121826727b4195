package pfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iobehind/internal/des"
)

func testPFS(t *testing.T, cfg Config) (*des.Engine, *PFS) {
	t.Helper()
	e := des.NewEngine(1)
	return e, New(e, cfg)
}

func runAll(t *testing.T, e *des.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFlowFullCapacity(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 200})
	var start, end des.Time
	e.Spawn("w", func(proc *des.Proc) {
		start, end = p.Transfer(proc, Write, 1000, Tag{})
	})
	runAll(t, e)
	if start != 0 {
		t.Fatalf("start = %v", start)
	}
	// 1000 bytes at 100 B/s = 10s (+1ns rounding).
	if got := end.Sub(start).Seconds(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("duration = %v, want 10s", got)
	}
}

func TestReadAndWriteChannelsIndependent(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 100})
	var wEnd, rEnd des.Time
	e.Spawn("w", func(proc *des.Proc) {
		_, wEnd = p.Transfer(proc, Write, 1000, Tag{})
	})
	e.Spawn("r", func(proc *des.Proc) {
		_, rEnd = p.Transfer(proc, Read, 1000, Tag{})
	})
	runAll(t, e)
	// No cross-channel contention: both take ~10s, not 20.
	for _, end := range []des.Time{wEnd, rEnd} {
		if got := end.Seconds(); math.Abs(got-10) > 1e-6 {
			t.Fatalf("end = %v, want ~10s", got)
		}
	}
}

func TestEqualSharing(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 100})
	ends := make([]des.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("w", func(proc *des.Proc) {
			_, ends[i] = p.Transfer(proc, Write, 1000, Tag{Rank: i})
		})
	}
	runAll(t, e)
	// Two equal flows at 50 B/s each: both finish at ~20s.
	for _, end := range ends {
		if got := end.Seconds(); math.Abs(got-20) > 1e-6 {
			t.Fatalf("end = %v, want ~20s", got)
		}
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 100})
	e.Spawn("w", func(proc *des.Proc) {
		start, end := p.Transfer(proc, Write, 0, Tag{})
		if start != end || proc.Now() != 0 {
			t.Errorf("zero-byte transfer took time: %v..%v", start, end)
		}
	})
	runAll(t, e)
}

// TestFlowPastHorizonNeverFinishes: a flow whose projected finish lies
// past the projection horizon does not finish on its own. Nothing projects
// it again here, so the run ends with the flow in flight instead of
// reporting bytes it never moved as delivered.
func TestFlowPastHorizonNeverFinishes(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 1, ReadCapacity: 1})
	f := p.StartFlow(Write, 1e17, Tag{})
	runAll(t, e)
	if f.Done() {
		t.Fatalf("1e17 bytes at 1 B/s reported finished at %v", f.Finished())
	}
}

// TestFlowPastHorizonResumesAfterOutage: a flow that an outage projects
// past the horizon is projected again when the capacity comes back, and
// finishes once its remaining bytes have moved at full speed.
func TestFlowPastHorizonResumesAfterOutage(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	p.SetFaultFactors(0, 1)
	f := p.StartFlow(Write, 1e17, Tag{})
	e.After(10*des.Second, func() { p.SetFaultFactors(1, 1) })
	runAll(t, e)
	want := 10 + (1e17-10)/1e9
	if !f.Done() || math.Abs(f.Finished().Seconds()-want) > 1e-6 {
		t.Fatalf("done %v at %v, want done at %vs", f.Done(), f.Finished(), want)
	}
}

func TestStaggeredArrivalSharing(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 100})
	var aEnd, bEnd des.Time
	e.Spawn("a", func(proc *des.Proc) {
		_, aEnd = p.Transfer(proc, Write, 1000, Tag{Rank: 0})
	})
	e.Spawn("b", func(proc *des.Proc) {
		proc.Sleep(5 * des.Second)
		_, bEnd = p.Transfer(proc, Write, 1000, Tag{Rank: 1})
	})
	runAll(t, e)
	// a: 5s alone (500 done), then shares 50/50: 500 more at 50 B/s → 15s.
	// b: at 15s it has 500 done; alone for the rest → 15 + 5 = 20s.
	if got := aEnd.Seconds(); math.Abs(got-15) > 1e-5 {
		t.Fatalf("a end = %v, want 15s", got)
	}
	if got := bEnd.Seconds(); math.Abs(got-20) > 1e-5 {
		t.Fatalf("b end = %v, want 20s", got)
	}
}

func TestActiveFlows(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 100})
	e.Spawn("w", func(proc *des.Proc) {
		f1 := p.StartFlow(Write, 1000, Tag{})
		f2 := p.StartFlow(Write, 1000, Tag{})
		proc.Yield()
		if got := p.chans[Write].active(); got != 2 {
			t.Errorf("active = %d, want 2", got)
		}
		f1.Wait(proc)
		f2.Wait(proc)
	})
	runAll(t, e)
	if p.chans[Write].active() != 0 {
		t.Fatal("flows left active")
	}
}

func TestObserverSeesRates(t *testing.T) {
	e, p := testPFS(t, Config{WriteCapacity: 100, ReadCapacity: 100})
	var snapshots int
	var lastTotal float64
	p.SetObserver(func(now des.Time, class Class, flows []*Flow) {
		snapshots++
		lastTotal = 0
		for _, f := range flows {
			lastTotal += f.Rate()
		}
	})
	e.Spawn("w", func(proc *des.Proc) {
		f1 := p.StartFlow(Write, 1000, Tag{})
		f2 := p.StartFlow(Write, 500, Tag{})
		f2.Wait(proc)
		f1.Wait(proc)
	})
	runAll(t, e)
	if snapshots == 0 {
		t.Fatal("observer never called")
	}
	if lastTotal != 0 {
		t.Fatalf("final snapshot total rate = %v, want 0 (drained)", lastTotal)
	}
}

func TestNoiseVariesCompletionAndStops(t *testing.T) {
	cfg := Config{
		WriteCapacity: 100, ReadCapacity: 100,
		Noise: &NoiseConfig{Interval: des.Second, Amplitude: 0.5},
	}
	e := des.NewEngine(9)
	p := New(e, cfg)
	var end des.Time
	e.Spawn("w", func(proc *des.Proc) {
		_, end = p.Transfer(proc, Write, 1000, Tag{})
	})
	runAll(t, e) // must terminate: noise parks when the channel drains
	if end.Seconds() <= 10 {
		t.Fatalf("noisy transfer finished in %v, want > 10s (reduced capacity)", end)
	}
	if end.Seconds() > 25 {
		t.Fatalf("noisy transfer took %v, amplitude bound violated", end)
	}
}

func TestValidation(t *testing.T) {
	e := des.NewEngine(1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero capacity", func() { New(e, Config{WriteCapacity: 0, ReadCapacity: 1}) })
	p := New(e, Config{WriteCapacity: 1, ReadCapacity: 1})
	mustPanic("negative bytes", func() { p.StartFlow(Write, -1, Tag{}) })
	mustPanic("bad noise", func() {
		New(des.NewEngine(1), Config{WriteCapacity: 1, ReadCapacity: 1,
			Noise: &NoiseConfig{Interval: 0}})
	})
}

func TestLichtenbergConfig(t *testing.T) {
	cfg := LichtenbergConfig()
	if cfg.WriteCapacity != 106e9 || cfg.ReadCapacity != 120e9 {
		t.Fatalf("unexpected config: %+v", cfg)
	}
	if Write.String() != "write" || Read.String() != "read" {
		t.Fatal("class names")
	}
}

// TestWaterfillProperties checks the allocation on random flow sets and
// capacities: every flow gets the equal share capacity/n, the shares add
// up to the capacity (work conservation), and recomputing the same flow
// set leaves every rate bit-identical (no state leaks between passes).
func TestWaterfillProperties(t *testing.T) {
	f := func(sizes []uint16, capacity uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		c := newChannel(des.NewEngine(1), float64(capacity%1000)+1)
		var flows []*Flow
		for i, size := range sizes {
			flows = append(flows, c.start(float64(size)+1, Tag{Rank: i}))
		}
		share := c.capacity / float64(len(flows))
		for round := 0; round < 5; round++ {
			c.recompute()
			total := 0.0
			for _, fl := range flows {
				if fl.Rate() != share {
					return false
				}
				total += fl.Rate()
			}
			if math.Abs(total-c.capacity) > 1e-9*c.capacity {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFluidConservationProperty: with random flows, total bytes delivered
// equals total bytes requested, and completion order follows size.
func TestFluidConservationProperty(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		e := des.NewEngine(seed)
		p := New(e, Config{WriteCapacity: 1000, ReadCapacity: 1000})
		ends := make([]des.Time, len(sizes))
		for i, s := range sizes {
			i, bytes := i, int64(s%5000)+1
			e.Spawn("w", func(proc *des.Proc) {
				_, ends[i] = p.Transfer(proc, Write, bytes, Tag{Rank: i})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, s := range sizes {
			for j, s2 := range sizes {
				if s%5000 < s2%5000 && ends[i] > ends[j] {
					return false // a smaller flow must not finish later
				}
			}
		}
		return p.chans[Write].active() == 0
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
