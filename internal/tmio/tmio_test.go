package tmio

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
)

// harness bundles one traced world.
type harness struct {
	e   *des.Engine
	w   *mpi.World
	fs  *pfs.PFS
	sys *mpiio.System
	tr  *Tracer
}

func newHarness(size int, strat StrategyConfig, cfg Config) *harness {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: size})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	sys := mpiio.NewSystem(w, fs, adio.Config{SubRequestSize: 1e6})
	tr := Attach(sys, strat, cfg)
	return &harness{e: e, w: w, fs: fs, sys: sys, tr: tr}
}

func (h *harness) run(t *testing.T, main func(r *mpi.Rank, f *mpiio.File)) *Report {
	t.Helper()
	if err := h.w.Run(func(r *mpi.Rank) {
		f := h.sys.Open(r, "test.dat")
		main(r, f)
		r.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	return h.tr.Report()
}

// phasedWriter is the canonical pattern of Fig. 3: compute, iwrite, compute,
// wait, iwrite, ... with per-phase constants.
func phasedWriter(phases int, bytes int64, compute des.Duration) func(*mpi.Rank, *mpiio.File) {
	return func(r *mpi.Rank, f *mpiio.File) {
		var req *mpiio.Request
		for j := 0; j < phases; j++ {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(0, bytes)
			r.Compute(compute)
		}
		req.Wait()
	}
}

func TestRequiredBandwidthMatchesComputePhase(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	rep := h.run(t, phasedWriter(5, 10e6, des.Second))
	// Each phase: 10 MB available window ≈ 1 s ⇒ B ≈ 10 MB/s.
	if rep.Ranks != 1 || len(rep.BPhases) != 5 {
		t.Fatalf("ranks=%d phases=%d", rep.Ranks, len(rep.BPhases))
	}
	for _, ph := range rep.BPhases {
		if math.Abs(ph.Value-10e6)/10e6 > 0.01 {
			t.Fatalf("B = %v, want ~10e6", ph.Value)
		}
	}
	if math.Abs(rep.RequiredBandwidth-10e6)/10e6 > 0.01 {
		t.Fatalf("required = %v", rep.RequiredBandwidth)
	}
	if rep.AsyncOps != 5 {
		t.Fatalf("asyncOps = %d", rep.AsyncOps)
	}
}

func TestNoLimitLeavesAgentUnlimited(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	h.run(t, phasedWriter(3, 1e6, des.Second))
	if !math.IsInf(h.tr.Limit(0), 1) {
		t.Fatalf("limit = %v, want unlimited", h.tr.Limit(0))
	}
}

func TestDirectStrategyAppliesLimit(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: Direct, Tol: 2}, Config{
		DisableOverhead: true,
	})
	rep := h.run(t, phasedWriter(4, 10e6, des.Second))
	// After the first phase closes, limit ≈ 2 × 10 MB/s.
	if got := h.tr.Limit(0); math.Abs(got-20e6)/20e6 > 0.05 {
		t.Fatalf("limit = %v, want ~20e6", got)
	}
	// The derived limit reaches the rank's I/O agent, not only the
	// tracer's bookkeeping.
	if math.IsInf(h.sys.Agent(0).Limit(), 1) {
		t.Fatal("no limit installed on the agent")
	}
	if rep.FirstLimitAt == 0 {
		t.Fatal("first-limit time not recorded")
	}
	if len(rep.BLPhases) == 0 {
		t.Fatal("no B_L phases recorded")
	}
	for _, ph := range rep.BLPhases {
		if math.Abs(ph.Value-2*10e6)/(2*10e6) > 0.05 {
			t.Fatalf("B_L = %v, want ~2*B", ph.Value)
		}
	}
}

func TestUpOnlyNeverLowersLimit(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: UpOnly, Tol: 1.1}, Config{
		DisableOverhead: true,
	})
	// Shrinking I/O sizes would lower a direct limit; up-only must hold.
	h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		sizes := []int64{40e6, 20e6, 10e6, 5e6}
		var req *mpiio.Request
		for _, s := range sizes {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(0, s)
			r.Compute(des.Second)
		}
		req.Wait()
	})
	want := 1.1 * 40e6 // from the largest (first) phase
	if got := h.tr.Limit(0); math.Abs(got-want)/want > 0.05 {
		t.Fatalf("limit = %v, want ~%v", got, want)
	}
}

func TestThroughputFollowsPreviousPhaseLimit(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: Direct, Tol: 1.0}, Config{
		DisableOverhead: true,
	})
	rep := h.run(t, phasedWriter(5, 10e6, des.Second))
	// Phases after the first are throttled to ~10 MB/s, so the measured
	// throughput of those phases must be ~10 MB/s instead of the 100 MB/s
	// the FS could deliver.
	if len(rep.TPhases) != 5 {
		t.Fatalf("T phases = %d", len(rep.TPhases))
	}
	unlimited := rep.TPhases[0].Value
	if unlimited < 90e6 {
		t.Fatalf("first phase throughput = %v, want ~100e6 (unthrottled)", unlimited)
	}
	for _, ph := range rep.TPhases[1:] {
		if math.Abs(ph.Value-10e6)/10e6 > 0.05 {
			t.Fatalf("throttled throughput = %v, want ~10e6", ph.Value)
		}
	}
}

func TestAdaptiveTracksTrend(t *testing.T) {
	strat := StrategyConfig{Strategy: Adaptive, Tol: 1, TolD: 1}
	l := newLimiter(strat)
	// No previous phase: pure level.
	if got := l.next(10); got != 10 {
		t.Fatalf("adaptive first = %v, want 10", got)
	}
	// Level 10, rising to 20: limit = 20 + (20-10) = 30.
	l.limit, l.lastB = 10, 10
	if got := l.next(20); got != 30 {
		t.Fatalf("adaptive = %v, want 30", got)
	}
	// Falling: 10 + (10−20) would be 0, but the limit is clamped at the
	// measured B — anything lower guarantees waiting and starts the
	// downward feedback spiral.
	l.limit, l.lastB = 20, 20
	if got := l.next(10); got != 10 {
		t.Fatalf("adaptive falling = %v, want 10 (clamped at B)", got)
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for s := None; s <= Frequent; s++ {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if got, err := ParseStrategy("uponly"); err != nil || got != UpOnly {
		t.Fatalf("uponly alias = %v, %v", got, err)
	}
	for _, bad := range []string{"", "Direct", "strategy(42)"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Fatalf("ParseStrategy(%q) accepted", bad)
		}
	}
}

func TestStrategyStringsAndLabels(t *testing.T) {
	if None.String() != "none" || Direct.String() != "direct" ||
		UpOnly.String() != "up-only" || Adaptive.String() != "adaptive" {
		t.Fatal("strategy names")
	}
	if Strategy(42).String() != "strategy(42)" {
		t.Fatal("unknown strategy name")
	}
	if got := (StrategyConfig{Strategy: Direct, Tol: 2}).Label(); got != "direct(tol=2)" {
		t.Fatalf("label = %q", got)
	}
	if got := (StrategyConfig{Strategy: Adaptive}).Label(); got != "adaptive(tol=1.1,tolD=0.5)" {
		t.Fatalf("label = %q", got)
	}
	if got := (StrategyConfig{}).Label(); got != "none" {
		t.Fatalf("label = %q", got)
	}
	if (StrategyConfig{Strategy: UpOnly}).Limits() != true ||
		(StrategyConfig{}).Limits() != false {
		t.Fatal("Limits()")
	}
}

func TestExploitAccountsHiddenIO(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: Direct, Tol: 1}, Config{
		DisableOverhead: true,
	})
	rep := h.run(t, phasedWriter(10, 10e6, des.Second))
	d := rep.Distribution()
	// Throttled phases stretch the operation across the whole compute
	// phase: exploit must dominate.
	if d.AsyncWriteExploit < 60 {
		t.Fatalf("exploit = %v%%, want > 60%%", d.AsyncWriteExploit)
	}
	if d.AsyncWriteLost > 5 {
		t.Fatalf("lost = %v%%, want small", d.AsyncWriteLost)
	}
	total := d.SyncWrite + d.SyncRead + d.AsyncWriteLost + d.AsyncReadLost +
		d.AsyncWriteExploit + d.AsyncReadExploit + d.OverheadPeri +
		d.OverheadPost + d.ComputeFree
	if math.Abs(total-100) > 0.5 {
		t.Fatalf("distribution sums to %v%%", total)
	}
}

func TestUnthrottledBurstHasLowExploit(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	rep := h.run(t, phasedWriter(10, 1e6, des.Second))
	d := rep.Distribution()
	// 1 MB at 100 MB/s = 10 ms inside a 1 s phase: ~1% exploit.
	if d.AsyncWriteExploit > 5 {
		t.Fatalf("exploit = %v%%, want tiny for bursts", d.AsyncWriteExploit)
	}
	if d.ComputeFree < 90 {
		t.Fatalf("compute = %v%%", d.ComputeFree)
	}
}

func TestLostWhenComputeTooShort(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	rep := h.run(t, phasedWriter(5, 100e6, 100*des.Millisecond))
	d := rep.Distribution()
	// 1 s of I/O against 0.1 s compute phases: most time is blocked waits.
	if d.AsyncWriteLost < 70 {
		t.Fatalf("lost = %v%%, want dominant", d.AsyncWriteLost)
	}
}

func TestSyncIOVisible(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		f.WriteAt(0, 50e6) // 0.5 s
		r.Compute(500 * des.Millisecond)
		f.ReadAt(0, 25e6) // 0.25 s
	})
	d := rep.Distribution()
	if math.Abs(d.SyncWrite-40) > 2 || math.Abs(d.SyncRead-20) > 2 {
		t.Fatalf("sync write/read = %v/%v, want ~40/20", d.SyncWrite, d.SyncRead)
	}
	if got := d.VisibleIO(); math.Abs(got-60) > 3 {
		t.Fatalf("visible = %v", got)
	}
	if rep.SyncOps != 2 {
		t.Fatalf("syncOps = %d", rep.SyncOps)
	}
}

func TestMultiRequestPhaseFirstVsLastWait(t *testing.T) {
	run := func(rule PhaseEndRule) *Report {
		h := newHarness(1, StrategyConfig{}, Config{PhaseEnd: rule, DisableOverhead: true})
		return h.run(t, func(r *mpi.Rank, f *mpiio.File) {
			// Two requests in one phase; the second wait comes later.
			q1 := f.IwriteAt(0, 10e6)
			q2 := f.IwriteAt(0, 10e6)
			r.Compute(des.Second)
			q1.Wait()
			r.Compute(des.Second)
			q2.Wait()
		})
	}
	first := run(FirstWait)
	last := run(LastWait)
	if len(first.BPhases) != 1 || len(last.BPhases) != 1 {
		t.Fatalf("phases: first=%d last=%d", len(first.BPhases), len(last.BPhases))
	}
	// FirstWait: window 1 s for 20 MB ⇒ B ≈ 20+20 MB/s (sum of two
	// requests over the same window). LastWait: window 2 s ⇒ about half.
	if first.BPhases[0].Value <= last.BPhases[0].Value {
		t.Fatalf("FirstWait B (%v) should exceed LastWait B (%v)",
			first.BPhases[0].Value, last.BPhases[0].Value)
	}
}

func TestSumVsAverageAggregation(t *testing.T) {
	run := func(agg Aggregation) float64 {
		h := newHarness(1, StrategyConfig{}, Config{Aggregation: agg, DisableOverhead: true})
		rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
			q1 := f.IwriteAt(0, 10e6)
			q2 := f.IwriteAt(0, 10e6)
			r.Compute(des.Second)
			q1.Wait()
			q2.Wait()
		})
		return rep.BPhases[0].Value
	}
	sum, avg := run(Sum), run(Average)
	if math.Abs(sum-2*avg)/sum > 0.01 {
		t.Fatalf("sum=%v avg=%v, want sum ≈ 2·avg", sum, avg)
	}
}

func TestOverheadPeriSmallAndPostGrows(t *testing.T) {
	runWith := func(size int) *Report {
		h := newHarness(size, StrategyConfig{}, Config{})
		return h.run(t, phasedWriter(5, 1e6, 100*des.Millisecond))
	}
	small := runWith(2)
	big := runWith(16)
	if small.Distribution().OverheadPeri > 0.1 {
		t.Fatalf("peri overhead = %v%%, want < 0.1%%", small.Distribution().OverheadPeri)
	}
	if big.PostOverhead <= small.PostOverhead {
		t.Fatalf("post overhead did not grow: %v vs %v",
			big.PostOverhead, small.PostOverhead)
	}
	if small.OverheadShare() > 9 || big.OverheadShare() > 9 {
		t.Fatalf("overhead share exceeds the paper's 9%% bound: %v / %v",
			small.OverheadShare(), big.OverheadShare())
	}
}

func TestAppTimeExcludesPostOverhead(t *testing.T) {
	h := newHarness(4, StrategyConfig{}, Config{})
	rep := h.run(t, phasedWriter(3, 1e6, 100*des.Millisecond))
	if rep.AppTime >= rep.Runtime {
		t.Fatalf("AppTime %v not below Runtime %v", rep.AppTime, rep.Runtime)
	}
}

func TestReportJSON(t *testing.T) {
	h := newHarness(2, StrategyConfig{Strategy: Direct}, Config{})
	rep := h.run(t, phasedWriter(3, 5e6, des.Second))
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"required_bandwidth", "b_series", "distribution", "async_exploit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out[:min(len(out), 400)])
		}
	}
}

func TestSinkReceivesPhases(t *testing.T) {
	h := newHarness(2, StrategyConfig{}, Config{DisableOverhead: true})
	sink := &CollectSink{}
	h.tr.SetSink(sink)
	h.run(t, phasedWriter(4, 1e6, 100*des.Millisecond))
	if sink.Len() != 2*4 {
		t.Fatalf("sink records = %d, want 8", sink.Len())
	}
	if err := h.tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	rec := sink.Records[0]
	if rec.B <= 0 || rec.TeSec <= rec.TsSec {
		t.Fatalf("bad record: %+v", rec)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSinkRoundTrip(t *testing.T) {
	// A real TCP connection: the listener collects everything the sink
	// writes until Close hangs up.
	ln, err := newLocalListener()
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		data, _ := io.ReadAll(conn)
		got <- data
	}()
	sink, err := DialSink(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(StreamRecord{Rank: 3, Phase: 1, B: 42}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data := <-got
	recs, n, err := DecodeFrame(nil, data)
	if err != nil || n != len(data) || len(recs) != 1 {
		t.Fatalf("streamed %d bytes: %d records in %d bytes, %v; want one frame of one record", len(data), len(recs), n, err)
	}
	if rec := recs[0]; rec.Rank != 3 || rec.Phase != 1 || rec.B != 42 || rec.V != StreamVersion {
		t.Fatalf("streamed record = %+v", rec)
	}
}

func TestTracerString(t *testing.T) {
	h := newHarness(2, StrategyConfig{Strategy: UpOnly}, Config{})
	if got := h.tr.String(); !strings.Contains(got, "up-only") {
		t.Fatalf("String = %q", got)
	}
	if rep := h.run(t, phasedWriter(1, 1e6, des.Second)); rep.Strategy.Tol != 1.1 {
		t.Fatalf("report strategy %+v: defaults not applied", rep.Strategy)
	}
}

func TestPhasesCount(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	h.run(t, phasedWriter(7, 1e6, 10*des.Millisecond))
	if got := h.tr.Phases(0); got != 7 {
		t.Fatalf("phases = %d, want 7", got)
	}
}

func TestSpeedup(t *testing.T) {
	a := &Report{AppTime: 90 * des.Second}
	b := &Report{AppTime: 100 * des.Second}
	if got := a.Speedup(b); math.Abs(got-10) > 1e-9 {
		t.Fatalf("speedup = %v, want 10", got)
	}
	if (&Report{}).Speedup(b) != 0 {
		t.Fatal("zero AppTime speedup")
	}
}

// newLocalListener returns a loopback TCP listener for the sink test.
func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestFrequencyTable(t *testing.T) {
	l := newLimiter(StrategyConfig{Strategy: Frequent, Tol: 1.1})
	if !math.IsInf(l.limit, 1) {
		t.Fatal("a fresh loop must be unlimited")
	}
	// Mode around ~100 MB/s with one huge outlier.
	for i := 0; i < 5; i++ {
		l.next(100e6 + float64(i)*1e6)
	}
	limit := l.next(5e9) // outlier
	want := 104e6 * 1.1
	if math.Abs(limit-want)/want > 0.01 {
		t.Fatalf("limit = %v, want ~%v (mode bucket peak × tol)", limit, want)
	}
}

func TestFrequentStrategyIgnoresOutliers(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: Frequent, Tol: 1.1}, Config{
		DisableOverhead: true,
	})
	h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		var req *mpiio.Request
		sizes := []int64{10e6, 10e6, 10e6, 200e6, 10e6, 10e6}
		for _, s := range sizes {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(0, s)
			r.Compute(des.Second)
		}
		req.Wait()
	})
	// Direct would have latched onto the 200 MB outlier phase; frequent
	// stays at the 10 MB/s mode (×1.1).
	if got := h.tr.Limit(0); math.Abs(got-11e6)/11e6 > 0.1 {
		t.Fatalf("limit = %v, want ~11e6 (the mode)", got)
	}
}

func TestFrequentStrategyLabel(t *testing.T) {
	if Frequent.String() != "frequent" {
		t.Fatal("name")
	}
	if got := (StrategyConfig{Strategy: Frequent, Tol: 1.2}).Label(); got != "frequent(tol=1.2)" {
		t.Fatalf("label = %q", got)
	}
}

func TestPerClassLimitsIndependent(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: Direct, Tol: 1.1}, Config{
		PerClassLimits:  true,
		DisableOverhead: true,
	})
	h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		// Alternating classes with very different requirements: writes
		// need ~100 MB/s, reads ~20 MB/s.
		var wq, rq *mpiio.Request
		for j := 0; j < 4; j++ {
			if rq != nil {
				rq.Wait()
			}
			wq = f.IwriteAt(0, 100e6)
			r.Compute(des.Second)
			wq.Wait()
			rq = f.IreadAt(0, 20e6)
			r.Compute(des.Second)
		}
		rq.Wait()
	})
	agent := h.sys.Agent(0)
	wLimit, rLimit := agent.ClassLimit(pfs.Write), agent.ClassLimit(pfs.Read)
	if math.Abs(wLimit-110e6)/110e6 > 0.05 {
		t.Fatalf("write limit = %v, want ~110e6", wLimit)
	}
	if math.Abs(rLimit-22e6)/22e6 > 0.05 {
		t.Fatalf("read limit = %v, want ~22e6", rLimit)
	}
	// The rank's requirement is its newest clean B of either class: the
	// final read's.
	if got := h.tr.RequiredBandwidth(0); math.Abs(got-20e6)/20e6 > 0.05 {
		t.Fatalf("required bandwidth = %v, want ~20e6 (the last read)", got)
	}
}

// TestFrequentPerClassKeepsClassesApart: under PerClassLimits each class
// has its own control loop, Frequent's histogram included. Two 10 MB
// reads per 80 MB write must not make the reads' mode the write limit.
func TestFrequentPerClassKeepsClassesApart(t *testing.T) {
	h := newHarness(1, StrategyConfig{Strategy: Frequent, Tol: 1.1}, Config{
		PerClassLimits:  true,
		DisableOverhead: true,
	})
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		var rq *mpiio.Request
		for j := 0; j < 6; j++ {
			if rq != nil {
				rq.Wait()
			}
			wq := f.IwriteAt(0, 80e6) // needs 80 MB/s over 1 s
			r.Compute(des.Second)
			wq.Wait()
			rq = f.IreadAt(0, 10e6) // needs 10 MB/s over 1 s
			r.Compute(des.Second)
			rq.Wait()
			rq = f.IreadAt(0, 10e6)
			r.Compute(des.Second)
		}
		rq.Wait()
	})
	if got := h.sys.Agent(0).ClassLimit(pfs.Write); math.Abs(got-88e6)/88e6 > 0.05 {
		t.Fatalf("write limit = %v, want ~88e6 (the writes' own mode)", got)
	}
	if lost := rep.Distribution().AsyncWriteLost; lost > 1 {
		t.Fatalf("writes blocked %.1f%% of rank time under per-class Frequent", lost)
	}
}

func TestSharedLimitOscillatesAcrossClasses(t *testing.T) {
	// The ablation motivating PerClassLimits: with one shared limit, the
	// write phases inherit the (much lower) read-derived limit and must
	// wait; with per-class limits they do not.
	run := func(perClass bool) Distribution {
		h := newHarness(1, StrategyConfig{Strategy: Direct, Tol: 1.1}, Config{
			PerClassLimits:  perClass,
			DisableOverhead: true,
		})
		rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
			var wq, rq *mpiio.Request
			for j := 0; j < 6; j++ {
				if rq != nil {
					rq.Wait()
				}
				wq = f.IwriteAt(0, 80e6) // needs 80 MB/s over 1 s
				r.Compute(des.Second)
				wq.Wait()
				rq = f.IreadAt(0, 10e6) // needs 10 MB/s over 1 s
				r.Compute(des.Second)
			}
			rq.Wait()
		})
		return rep.Distribution()
	}
	shared := run(false)
	perClass := run(true)
	if shared.AsyncWriteLost <= perClass.AsyncWriteLost {
		t.Fatalf("shared limit should cause write waits: shared=%v perClass=%v",
			shared.AsyncWriteLost, perClass.AsyncWriteLost)
	}
	if perClass.AsyncWriteLost > 1 {
		t.Fatalf("per-class limits still waiting: %v%%", perClass.AsyncWriteLost)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	h := newHarness(2, StrategyConfig{Strategy: Direct, Tol: 1.1}, Config{
		DisableOverhead: true,
	})
	h.run(t, phasedWriter(4, 100e6, 200*des.Millisecond)) // I/O outlasts compute: waits exist
	var buf bytes.Buffer
	if err := h.tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var meta, spans, waits, instants int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			if ev["cat"] == "wait" {
				waits++
			} else {
				spans++
			}
		case "i":
			instants++
		}
	}
	if meta != 2 {
		t.Fatalf("thread metadata = %d, want 2", meta)
	}
	if spans != 2*4 {
		t.Fatalf("io spans = %d, want 8", spans)
	}
	if waits == 0 || instants == 0 {
		t.Fatalf("waits=%d instants=%d, want both > 0", waits, instants)
	}
}

func TestUniformLimitStarvesImbalancedRanks(t *testing.T) {
	// Rank 0 writes 4x more than rank 1. Per-rank limits fit each; the
	// uniform application-level limit caps both at the mean and makes the
	// heavy rank wait — the reason the paper keeps limits per rank.
	run := func(uniform bool) Distribution {
		h := newHarness(2, StrategyConfig{Strategy: Direct, Tol: 1.1}, Config{
			UniformLimit:    uniform,
			DisableOverhead: true,
		})
		rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
			bytes := int64(80e6)
			if r.ID() == 1 {
				bytes = 20e6
			}
			var req *mpiio.Request
			for j := 0; j < 6; j++ {
				if req != nil {
					req.Wait()
				}
				req = f.IwriteAt(0, bytes)
				r.Compute(des.Second)
			}
			req.Wait()
		})
		return rep.Distribution()
	}
	perRank := run(false)
	uniform := run(true)
	if uniform.AsyncWriteLost <= perRank.AsyncWriteLost {
		t.Fatalf("uniform limit should cause waits under imbalance: uniform=%v perRank=%v",
			uniform.AsyncWriteLost, perRank.AsyncWriteLost)
	}
	if perRank.AsyncWriteLost > 1 {
		t.Fatalf("per-rank limits waiting: %v%%", perRank.AsyncWriteLost)
	}
}

func TestRankBreakdown(t *testing.T) {
	h := newHarness(3, StrategyConfig{Strategy: Direct, Tol: 1.1}, Config{
		DisableOverhead: true,
	})
	h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		bytes := int64((r.ID() + 1)) * 10e6 // imbalanced
		var req *mpiio.Request
		for j := 0; j < 3; j++ {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(0, bytes)
			r.Compute(des.Second)
		}
		req.Wait()
	})
	stats := h.tr.RankBreakdown()
	if len(stats) != 3 {
		t.Fatalf("ranks = %d", len(stats))
	}
	for i, st := range stats {
		if st.Rank != i || st.Phases != 3 {
			t.Fatalf("rank %d stats: %+v", i, st)
		}
		wantBytes := int64(i+1) * 10e6 * 3
		if st.AsyncBytes != wantBytes {
			t.Fatalf("rank %d bytes = %d, want %d", i, st.AsyncBytes, wantBytes)
		}
	}
	// The imbalance shows in the per-rank limits: rank 2's is ~3× rank 0's.
	if stats[2].Limit < 2.5*stats[0].Limit {
		t.Fatalf("limits do not reflect imbalance: %v vs %v",
			stats[2].Limit, stats[0].Limit)
	}
}

func TestOutOfOrderWaitsFirstWaitRule(t *testing.T) {
	// Waiting the second request before the first: under FirstWait the
	// phase stays open until the *head* is waited.
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		q1 := f.IwriteAt(0, 10e6)
		q2 := f.IwriteAt(0, 10e6)
		r.Compute(des.Second)
		q2.Wait() // out of order: does not close the phase
		r.Compute(des.Second)
		q1.Wait() // head: closes with a 2 s window
	})
	if len(rep.BPhases) != 1 {
		t.Fatalf("phases = %d", len(rep.BPhases))
	}
	// Window = 2 s (until the head's wait): B = 10e6/2 + 10e6/2 = 10e6.
	if got := rep.BPhases[0].Value; math.Abs(got-10e6)/10e6 > 0.01 {
		t.Fatalf("B = %v, want ~10e6", got)
	}
}

func TestOutOfOrderWaitsLastWaitRule(t *testing.T) {
	// Under LastWait the same pattern closes at the head's wait too,
	// because by then *all* queue members have been waited.
	h := newHarness(1, StrategyConfig{}, Config{PhaseEnd: LastWait, DisableOverhead: true})
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		q1 := f.IwriteAt(0, 10e6)
		q2 := f.IwriteAt(0, 10e6)
		r.Compute(des.Second)
		q2.Wait()
		r.Compute(des.Second)
		q1.Wait()
	})
	if len(rep.BPhases) != 1 {
		t.Fatalf("phases = %d", len(rep.BPhases))
	}
	if got := rep.BPhases[0].Value; math.Abs(got-10e6)/10e6 > 0.01 {
		t.Fatalf("B = %v, want ~10e6", got)
	}
}

func TestWaitForClosedPhaseRequestIgnored(t *testing.T) {
	// A request left over from a closed phase: its wait is tracked as
	// blocking time but opens no new phase bookkeeping.
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		q1 := f.IwriteAt(0, 10e6)
		q2 := f.IwriteAt(0, 10e6)
		r.Compute(des.Second)
		q1.Wait() // closes the phase containing q1 AND q2
		r.Compute(des.Second)
		q2.Wait() // wait for a request of an already-closed phase
	})
	if len(rep.BPhases) != 1 {
		t.Fatalf("phases = %d", len(rep.BPhases))
	}
	if rep.AsyncOps != 2 {
		t.Fatalf("ops = %d", rep.AsyncOps)
	}
}

// TestReportFileRoundTrip: a saved report decodes to the live report's
// accounting, B phases and series bit for bit, and renders the same text.
func TestReportFileRoundTrip(t *testing.T) {
	h := newHarness(3, StrategyConfig{Strategy: Adaptive}, Config{})
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		var req *mpiio.Request
		for j := 0; j < 5; j++ {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(0, int64(j+r.ID()+1)*3e6)
			r.Compute(des.Duration(700+100*j) * des.Millisecond)
			f.ReadAt(0, 1e6)
		}
		req.Wait()
	})
	live := rep.File()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	saved, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The file keeps the B phases but not the T and B_L phases or the
	// fault spans, whose information reaches it only through the series.
	want := *live
	want.TPhases, want.BLPhases, want.FaultSpans = nil, nil, nil
	if !reflect.DeepEqual(*saved, want) {
		t.Fatalf("decoded file differs from the live report:\n got %+v\nwant %+v", saved.Report, want.Report)
	}
	if len(saved.BPhases) == 0 || len(saved.T.Points) == 0 || len(saved.BL.Points) == 0 {
		t.Fatalf("empty round trip: %d B phases, %d T points, %d B_L points",
			len(saved.BPhases), len(saved.T.Points), len(saved.BL.Points))
	}
	var liveText, savedText bytes.Buffer
	if err := live.WriteText(&liveText); err != nil {
		t.Fatal(err)
	}
	if err := saved.WriteText(&savedText); err != nil {
		t.Fatal(err)
	}
	if liveText.String() != savedText.String() {
		t.Fatalf("saved report renders differently:\n%s\nlive:\n%s", savedText.String(), liveText.String())
	}
	for _, want := range []string{"3 ranks, strategy adaptive(tol=1.1,tolD=0.5)", "visible I/O", "B_L  peak"} {
		if !strings.Contains(liveText.String(), want) {
			t.Fatalf("render lacks %q:\n%s", want, liveText.String())
		}
	}
}
