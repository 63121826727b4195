package adio

import (
	"math"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

// scriptedFaults is a deterministic FaultModel: it fails the first
// failFirst sub-request attempts, stalls queues by queue, and slows node
// slowNode by slowdown.
type scriptedFaults struct {
	failFirst int // attempts to fail before succeeding
	attempts  int
	queue     float64
	slowNode  int
	slowdown  float64
}

func (f *scriptedFaults) QueueFactor(pfs.Class) float64 {
	if f.queue > 1 {
		return f.queue
	}
	return 1
}

func (f *scriptedFaults) NodeSlowdown(node int) float64 {
	if node == f.slowNode && f.slowdown > 1 {
		return f.slowdown
	}
	return 1
}

func (f *scriptedFaults) ErrorProb(pfs.Class) float64 {
	f.attempts++
	if f.attempts <= f.failFirst {
		return 1 // rand.Float64() ∈ [0,1) is always below 1: certain failure
	}
	return 0
}

func TestTransientErrorsRetriedWithBackoff(t *testing.T) {
	e, _, a, _ := setup(Config{})
	a.SetFaults(&scriptedFaults{failFirst: 2})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		req := a.Submit(pfs.Write, 10e6, true)
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 2 || a.Retries() != 2 {
		t.Fatalf("retries = %d/%d, want 2", stats.Retries, a.Retries())
	}
	// Exponential backoff: 10 ms then 20 ms.
	if got := stats.BackoffSlept; got != 30*des.Millisecond {
		t.Fatalf("backoff slept %v, want 30ms", got)
	}
	if stats.Failed || a.RetryExhausted() != 0 {
		t.Fatal("request wrongly marked failed")
	}
	// The retried attempts burned wire time but the bytes arrived once.
	if a.TotalBytes(pfs.Write) != 10e6 {
		t.Fatalf("delivered = %d, want 10e6", a.TotalBytes(pfs.Write))
	}
	// Three attempts of 0.1 s each plus 30 ms backoff.
	if got := stats.End.Sub(stats.Start).Seconds(); math.Abs(got-0.33) > 1e-3 {
		t.Fatalf("duration = %v, want ~0.33s", got)
	}
}

func TestRetryExhaustionMarksRequestFailed(t *testing.T) {
	e, _, a, _ := setup(Config{SubRequestSize: 1e6})
	a.SetFaults(&scriptedFaults{failFirst: 1 << 30}) // never succeeds
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		a.SetLimit(50e6)
		req := a.Submit(pfs.Write, 10e6, true)
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !stats.Failed {
		t.Fatal("exhausted request not marked Failed")
	}
	if stats.Retries != retryMax || a.RetryExhausted() != 1 {
		t.Fatalf("retries = %d, exhausted = %d; want %d, 1", stats.Retries, a.RetryExhausted(), retryMax)
	}
	// 10 + 20 + 40 + 80 ms of backoff between the five attempts.
	if got := stats.BackoffSlept; got != 150*des.Millisecond {
		t.Fatalf("backoff slept %v, want 150ms", got)
	}
	// Nothing was delivered: the first chunk never went through.
	if a.TotalBytes(pfs.Write) != 0 {
		t.Fatalf("failed request counted %d delivered bytes", a.TotalBytes(pfs.Write))
	}
	if !stats.Failed || stats.End == 0 {
		t.Fatal("request did not complete with an end time")
	}
}

// TestRetryBackoffDoublesAndCaps pins the backoff of every retry the
// agent can take: it doubles from 10 ms, and retryMax caps it at the
// fourth retry's 80 ms.
func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	want := []des.Duration{
		10 * des.Millisecond, 20 * des.Millisecond, 40 * des.Millisecond, 80 * des.Millisecond,
	}
	if len(want) != retryMax {
		t.Fatalf("retryMax = %d, the table covers %d retries", retryMax, len(want))
	}
	for i, w := range want {
		if got := retryBackoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestQueueWaitRecordedAndFoldedIntoFirstSegment(t *testing.T) {
	e, fs, a, _ := setup(Config{QueueLatencyPerFlow: 10 * des.Millisecond})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		// Raise the burst concurrency the storm model keys on; the mpiio
		// layer does this on submit in the full stack.
		fs.NoteOp(pfs.Write)
		fs.NoteOp(pfs.Write)
		req := a.Submit(pfs.Write, 10e6, true)
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.Queued <= 0 {
		t.Fatal("storm-queue wait not recorded in Stats.Queued")
	}
	if len(stats.Segments) == 0 {
		t.Fatal("no segments recorded")
	}
	// The first segment reaches back over the queue wait: Δt° rebuilt from
	// the segments must include the server-side stall.
	if got := stats.Segments[0].Start; got != stats.Start {
		t.Fatalf("first segment starts at %v, want the request start %v (queue folded in)", got, stats.Start)
	}
	wire := des.DurationOf(0.1) // 10e6 at 100 MB/s
	if got := stats.ActiveTransfer(); got < stats.Queued+wire-des.Millisecond {
		t.Fatalf("active transfer %v does not cover queue %v + wire %v", got, stats.Queued, wire)
	}
}

func TestServerStallFaultScalesQueueWait(t *testing.T) {
	run := func(queue float64) des.Duration {
		e, fs, a, _ := setup(Config{QueueLatencyPerFlow: 10 * des.Millisecond})
		a.SetFaults(&scriptedFaults{queue: queue})
		var stats RequestStats
		e.Spawn("app", func(p *des.Proc) {
			fs.NoteOp(pfs.Write)
			req := a.Submit(pfs.Write, 1e6, true)
			req.Wait(p)
			stats = req.Stats
			a.Close()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stats.Queued
	}
	base, stalled := run(1), run(3)
	if base <= 0 {
		t.Fatal("no baseline queue wait")
	}
	// Identical seed and draw order: the stall multiplies the same sample
	// (up to nanosecond rounding of the duration conversion).
	if got, want := stalled, 3*base; got < want-2 || got > want+2 {
		t.Fatalf("stalled queue wait = %v, want 3× the baseline %v", got, base)
	}
}

func TestBufferedWriteStatsMatchDirectPathSemantics(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	h := &fakeHost{}
	a := NewAgent(e, fs, h, Config{
		HiccupProb: 1, // certain: the hiccup tail must run for buffered writes
		BurstBuffer: &pfs.BurstBufferConfig{
			Capacity:  1 << 30,
			WriteRate: 1e9,
			DrainRate: 20e6,
		},
	})
	var stats RequestStats
	e.Spawn("app", func(p *des.Proc) {
		a.SetLimit(5e6) // must NOT show up in the buffered request's stats
		req := a.Submit(pfs.Write, 100e6, true)
		req.Wait(p)
		stats = req.Stats
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The buffered path is never paced, so limiter feedback must see an
	// unthrottled request — not the stale write limit.
	if !math.IsInf(stats.Limit, 1) {
		t.Fatalf("buffered request reported limit %v, want Unlimited", stats.Limit)
	}
	if len(stats.Segments) != 1 || stats.End == 0 {
		t.Fatalf("buffered request segments/end: %d/%v", len(stats.Segments), stats.End)
	}
	if a.TotalBytes(pfs.Write) != 100e6 {
		t.Fatalf("buffered bytes not counted: %d", a.TotalBytes(pfs.Write))
	}
	// The hiccup tail is charged like the direct path's.
	if h.penalty <= 0 {
		t.Fatal("buffered write's hiccup charged the host nothing")
	}
	if a.Hiccups() != 1 {
		t.Fatalf("hiccups = %d, want 1 (unpaced buffered write, prob 1)", a.Hiccups())
	}
}

func TestFaultModelNilMeansHealthy(t *testing.T) {
	e, _, a, _ := setup(Config{})
	a.SetFaults(&scriptedFaults{failFirst: 1})
	a.SetFaults(nil) // removal must fully disarm the model
	e.Spawn("app", func(p *des.Proc) {
		a.Submit(pfs.Write, 10e6, true).Wait(p)
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Retries() != 0 {
		t.Fatalf("retries = %d after removing the fault model", a.Retries())
	}
}
