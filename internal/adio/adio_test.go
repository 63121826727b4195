package adio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

type fakeHost struct {
	penalty float64
}

func (h *fakeHost) AddInterference(s float64) { h.penalty += s }

func setup(cfg Config) (*des.Engine, *pfs.PFS, *Agent, *fakeHost) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	h := &fakeHost{}
	a := NewAgent(e, fs, h, cfg)
	return e, fs, a, h
}

func TestUnlimitedRequestRunsAtFullSpeed(t *testing.T) {
	e, _, a, _ := setup(Config{})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		req := a.Submit(pfs.Write, 200e6, true) // 2 s at 100 MB/s
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := stats.End.Sub(stats.Start).Seconds(); math.Abs(got-2) > 1e-6 {
		t.Fatalf("duration = %v, want 2s", got)
	}
	if len(stats.Segments) != 1 {
		t.Fatalf("unlimited request was chunked: %d segments", len(stats.Segments))
	}
	if stats.SleptFor != 0 {
		t.Fatalf("unlimited request slept %v", stats.SleptFor)
	}
	if !math.IsInf(stats.Limit, 1) {
		t.Fatalf("stats limit = %v", stats.Limit)
	}
	if a.TotalBytes(pfs.Write) != 200e6 || a.RequestsDone() != 1 {
		t.Fatalf("totals: bytes=%d done=%d", a.TotalBytes(pfs.Write), a.RequestsDone())
	}
}

func TestLimitedRequestTakesRequiredTime(t *testing.T) {
	e, _, a, _ := setup(Config{SubRequestSize: 10e6})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		a.SetLimit(10e6) // 10 MB/s
		req := a.Submit(pfs.Write, 100e6, true)
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Required: 100e6 / 10e6 = 10 s, even though the FS could do it in 1 s.
	if got := stats.End.Sub(stats.Start).Seconds(); math.Abs(got-10) > 1e-3 {
		t.Fatalf("duration = %v, want ~10s", got)
	}
	if len(stats.Segments) != 10 {
		t.Fatalf("segments = %d, want 10", len(stats.Segments))
	}
	// Active transfer was only ~1s; the rest was throttle sleep.
	if got := stats.ActiveTransfer().Seconds(); math.Abs(got-1) > 1e-3 {
		t.Fatalf("active transfer = %v, want ~1s", got)
	}
	if got := stats.SleptFor.Seconds(); math.Abs(got-9) > 1e-3 {
		t.Fatalf("slept = %v, want ~9s", got)
	}
}

func TestSmallRequestExecutedDirectly(t *testing.T) {
	e, _, a, _ := setup(Config{SubRequestSize: 8 << 20})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		a.SetLimit(1e6)
		req := a.Submit(pfs.Write, 1<<20, true) // below the sub-request size
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(stats.Segments) != 1 {
		t.Fatalf("small request chunked into %d segments", len(stats.Segments))
	}
	// Still paced: 1 MiB at 1 MB/s ≈ 1.05 s.
	want := float64(1<<20) / 1e6
	if got := stats.End.Sub(stats.Start).Seconds(); math.Abs(got-want) > 1e-3 {
		t.Fatalf("duration = %v, want %v", got, want)
	}
}

func TestDeficitReducesSleep(t *testing.T) {
	// FS so slow the first chunks overrun their required time; later the
	// capacity recovers and the banked overrun shortens the sleeps.
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 5e6, ReadCapacity: 5e6})
	a := NewAgent(e, fs, nil, Config{SubRequestSize: 10e6})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		a.SetLimit(10e6) // required rate twice what the FS delivers
		req := a.Submit(pfs.Write, 50e6, true)
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Every chunk takes 2 s against a 1 s requirement: pure Case B. The
	// agent must never sleep, and the duration is FS-bound: 10 s.
	if stats.SleptFor != 0 {
		t.Fatalf("slept %v despite overrunning", stats.SleptFor)
	}
	if got := stats.End.Sub(stats.Start).Seconds(); math.Abs(got-10) > 1e-3 {
		t.Fatalf("duration = %v, want 10s", got)
	}
}

func TestSetLimitClampsAndClears(t *testing.T) {
	_, _, a, _ := setup(Config{})
	a.SetLimit(1)
	if a.Limit() != minLimit {
		t.Fatalf("limit = %v, want clamped %v", a.Limit(), minLimit)
	}
	a.SetLimit(5000)
	if a.Limit() != 5000 {
		t.Fatalf("limit = %v", a.Limit())
	}
	a.SetLimit(pfs.Unlimited)
	if !math.IsInf(a.Limit(), 1) {
		t.Fatalf("limit = %v, want unlimited", a.Limit())
	}
	a.Close()
}

func TestQueueServesFIFO(t *testing.T) {
	e, _, a, _ := setup(Config{})
	var ends []des.Time
	e.Spawn("app", func(p *des.Proc) {
		r1 := a.Submit(pfs.Write, 100e6, true) // 1 s
		r2 := a.Submit(pfs.Write, 100e6, true) // next second
		if len(a.queue) < 1 {
			t.Error("queue should hold the second request")
		}
		r2.Wait(p)
		if !r1.Done() {
			t.Error("r1 not done before r2")
		}
		ends = append(ends, r1.CompletedAt(), r2.CompletedAt())
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !(ends[0] < ends[1]) {
		t.Fatalf("completion order: %v", ends)
	}
	if got := ends[1].Seconds(); math.Abs(got-2) > 1e-3 {
		t.Fatalf("second request completed at %v, want 2s", got)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e, _, a, _ := setup(Config{})
	var done bool
	e.Spawn("app", func(p *des.Proc) {
		req := a.Submit(pfs.Write, 100e6, true)
		a.Close()
		a.Close() // idempotent
		req.Wait(p)
		done = req.Done()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("queued request not drained on close")
	}
	if len(e.Stalled()) != 0 {
		t.Fatalf("agent proc stalled: %v", e.Stalled())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("submit after close did not panic")
		}
	}()
	a.Submit(pfs.Write, 1, true)
}

// TestAgentRunsWithoutProcess: the agent runs as engine events. A
// request submitted from a function event, with no process in the
// engine, is paced and completes, and the engine spawns no process.
func TestAgentRunsWithoutProcess(t *testing.T) {
	e, _, a, _ := setup(Config{SubRequestSize: 10e6})
	var req *Request
	e.Schedule(des.Time(des.Second), des.PrioNormal, func() {
		a.SetLimit(50e6)
		req = a.Submit(pfs.Write, 100e6, true) // ten 0.1 s chunks paced to 2 s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !req.Done() {
		t.Fatal("request submitted from an event did not complete")
	}
	if got := req.CompletedAt().Seconds(); math.Abs(got-3) > 1e-6 {
		t.Fatalf("completed at %v, want 3s", got)
	}
	if n := e.Stats().Procs; n != 0 {
		t.Fatalf("engine spawned %d processes, want 0", n)
	}
	a.Close()
}

// TestCloseOnIdleAgentSchedulesNothing: an idle agent needs no wake to
// shut down, so Close costs no event.
func TestCloseOnIdleAgentSchedulesNothing(t *testing.T) {
	e, _, a, _ := setup(Config{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ran := e.Stats().EventsRun
	a.Close()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().EventsRun - ran; got != 0 {
		t.Fatalf("Close on an idle agent ran %d events", got)
	}
}

// TestRequestSubmittedBeforeActivationStartsThere: NewAgent's first
// activation sits where a process spawned by NewAgent would start, so a
// request submitted before it fires starts there, ahead of an event
// scheduled after NewAgent for the same instant: the limit that event
// installs does not pace the request.
func TestRequestSubmittedBeforeActivationStartsThere(t *testing.T) {
	e, _, a, _ := setup(Config{})
	e.Schedule(0, des.PrioNormal, func() { a.SetLimit(1e6) })
	req := a.Submit(pfs.Write, 10e6, true)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(req.Stats.Limit, 1) {
		t.Fatalf("request paced at %v, want it started before the limit", req.Stats.Limit)
	}
	a.Close()
}

func TestSubmitValidation(t *testing.T) {
	_, _, a, _ := setup(Config{})
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	a.Submit(pfs.Write, -1, true)
}

func TestZeroByteRequestCompletes(t *testing.T) {
	e, _, a, _ := setup(Config{})
	e.Spawn("app", func(p *des.Proc) {
		req := a.Submit(pfs.Write, 0, true)
		req.Wait(p)
		if req.Stats.End != req.Stats.Start {
			t.Error("zero-byte request took time")
		}
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestThrottlePacingProperty: for random request sizes and limits, the
// wall-clock duration of a limited request on an uncontended FS is at
// least bytes/limit (the shaping guarantee) and at most that plus one
// sub-request of slack, and average throughput never exceeds the limit.
func TestThrottlePacingProperty(t *testing.T) {
	f := func(sizeKB uint32, limitKB uint32) bool {
		bytes := int64(sizeKB%100_000)*1024 + 1
		limit := float64(limitKB%50_000)*1024 + 50_000
		e := des.NewEngine(3)
		fs := pfs.New(e, pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
		a := NewAgent(e, fs, nil, Config{SubRequestSize: 1 << 20})
		var stats RequestStats
		e.Spawn("app", func(p *des.Proc) {
			a.SetLimit(limit)
			req := a.Submit(pfs.Write, bytes, true)
			req.Wait(p)
			stats = req.Stats
			a.Close()
		})
		if err := e.Run(); err != nil {
			return false
		}
		dur := stats.End.Sub(stats.Start).Seconds()
		required := float64(bytes) / limit
		if dur < required-1e-6 {
			return false // finished faster than the limit permits
		}
		slack := float64(1<<20)/limit + 1e-3
		return dur <= required+slack
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCarryDeficitAblation: with CarryDeficit, an overrun in request 1
// shortens the sleeps of request 2; without it, request 2 is fully paced.
func TestCarryDeficitAblation(t *testing.T) {
	run := func(carry bool) des.Duration {
		e := des.NewEngine(1)
		// Slow FS (5 MB/s) for the first request via noise-free capacity;
		// we emulate the overrun by setting a limit above the capacity.
		fs := pfs.New(e, pfs.Config{WriteCapacity: 5e6, ReadCapacity: 5e6})
		a := NewAgent(e, fs, nil, Config{SubRequestSize: 5e6, CarryDeficit: carry})
		var total des.Duration
		e.Spawn("app", func(p *des.Proc) {
			a.SetLimit(10e6)
			a.Submit(pfs.Write, 20e6, true).Wait(p) // overruns: banks 2 s of deficit
			// Second request is paced below the FS speed, so it would
			// normally sleep; carried deficit eats into that sleep.
			a.SetLimit(2.5e6)
			req := a.Submit(pfs.Write, 10e6, true)
			req.Wait(p)
			total = req.Stats.SleptFor
			a.Close()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}
	withCarry := run(true)
	withoutCarry := run(false)
	if withCarry >= withoutCarry {
		t.Fatalf("carry=%v nocarry=%v: carried deficit did not reduce sleep",
			withCarry, withoutCarry)
	}
}

func TestHiccupsOnlyForUnpacedRequests(t *testing.T) {
	run := func(limit float64) (int, float64) {
		e := des.NewEngine(5)
		fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
		h := &fakeHost{}
		a := NewAgent(e, fs, h, Config{HiccupProb: 1, HiccupMean: 100 * des.Millisecond})
		e.Spawn("app", func(p *des.Proc) {
			a.SetLimit(limit)
			for i := 0; i < 20; i++ {
				a.Submit(pfs.Write, 10e6, true).Wait(p)
			}
			a.Close()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return a.Hiccups(), h.penalty
	}
	unpacedHiccups, unpacedPenalty := run(pfs.Unlimited)
	pacedHiccups, pacedPenalty := run(1e6) // forces sleeps: paced
	if unpacedHiccups != 20 || unpacedPenalty <= 0 {
		t.Fatalf("unpaced: hiccups=%d penalty=%v", unpacedHiccups, unpacedPenalty)
	}
	if pacedHiccups != 0 || pacedPenalty != 0 {
		t.Fatalf("paced agent hiccupped: %d, %v", pacedHiccups, pacedPenalty)
	}
}

func TestHiccupDisabledByDefault(t *testing.T) {
	e, _, a, h := setup(Config{})
	e.Spawn("app", func(p *des.Proc) {
		a.Submit(pfs.Write, 10e6, true).Wait(p)
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Hiccups() != 0 || h.penalty != 0 {
		t.Fatal("default config must not hiccup")
	}
}

func TestBurstBufferedWrites(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	a := NewAgent(e, fs, nil, Config{
		BurstBuffer: &pfs.BurstBufferConfig{
			Capacity:  1 << 30,
			WriteRate: 1e9,  // 10× the PFS
			DrainRate: 20e6, // gentle footprint on the shared system
		},
	})
	if a.BurstBuffer() == nil {
		t.Fatal("buffer not created")
	}
	var writeDone, readDone des.Time
	e.Spawn("app", func(p *des.Proc) {
		// The write completes at buffer speed, not PFS speed.
		a.Submit(pfs.Write, 100e6, true).Wait(p)
		writeDone = p.Now()
		// Reads bypass the buffer: PFS speed.
		a.Submit(pfs.Read, 100e6, true).Wait(p)
		readDone = p.Now()
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := writeDone.Seconds(); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("buffered write took %v, want 0.1s", got)
	}
	if got := readDone.Sub(writeDone).Seconds(); math.Abs(got-1) > 0.1 {
		t.Fatalf("read took %v, want ~1s (PFS speed)", got)
	}
	// The drain eventually moves everything to the PFS at the capped rate.
	if a.BurstBuffer().Drained() != 100e6 {
		t.Fatalf("drained = %d", a.BurstBuffer().Drained())
	}
	if got := e.Now().Seconds(); got < 5 {
		t.Fatalf("drain finished at %v, want ≈5s (100 MB at 20 MB/s)", got)
	}
}
