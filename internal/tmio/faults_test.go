package tmio

import (
	"encoding/json"
	"math"
	"testing"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/region"
)

// Fault window of the recovery tests, placed so that one phase's first
// request is mid-transfer when the degradation hits: its wait-end then
// delays the phase-closing last wait, which is how degraded hardware
// lengthens a measured window and deflates B.
var (
	faultFrom = des.Time(2100 * des.Millisecond)
	faultTo   = des.Time(5500 * des.Millisecond)
)

// faultedRun executes a two-requests-per-phase writer under the LastWait
// rule on a harness whose write channel drops to 5% capacity during
// [faultFrom, faultTo); withOracle additionally wires the tracer's fault
// oracle over that window (mirroring the injector's overlap semantics).
func faultedRun(t *testing.T, sc StrategyConfig, degrade, withOracle bool) (*harness, *Report) {
	t.Helper()
	cfg := Config{PhaseEnd: LastWait, DisableOverhead: true}
	if withOracle {
		cfg.FaultOracle = func(class pfs.Class, from, to des.Time) bool {
			return class == pfs.Write && faultFrom < to && from < faultTo
		}
	}
	h := newHarness(1, sc, cfg)
	if degrade {
		h.e.Schedule(faultFrom, des.PrioEarly, func() { h.fs.SetFaultFactors(0.05, 1) })
		h.e.Schedule(faultTo, des.PrioEarly, func() { h.fs.SetFaultFactors(1, 1) })
	}
	rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
		for j := 0; j < 8; j++ {
			q1 := f.IwriteAt(0, 10e6)
			q2 := f.IwriteAt(10e6, 10e6)
			r.Compute(500 * des.Millisecond)
			q1.Wait()
			q2.Wait() // phase closes here: the window includes q1's wait
		}
	})
	return h, rep
}

// firstLimitAfter returns the first applied-limit value whose phase starts
// at or after t (0 when none).
func firstLimitAfter(rep *Report, t des.Time) float64 {
	var best region.Phase
	found := false
	for _, ph := range rep.BLPhases {
		if ph.Start >= t && (!found || ph.Start < best.Start) {
			best = ph
			found = true
		}
	}
	if !found {
		return 0
	}
	return best.Value
}

// TestLimiterRecoversWithinOneCleanPhase asserts, for each limiting
// strategy, that a hard degradation window does not poison the control
// loop when the fault oracle is wired: tainted phases derive no limit, the
// pre-fault limit survives the window, and the first clean phase after it
// re-derives the clean run's limit.
func TestLimiterRecoversWithinOneCleanPhase(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   StrategyConfig
	}{
		{"direct", StrategyConfig{Strategy: Direct, Tol: 1.1}},
		{"uponly", StrategyConfig{Strategy: UpOnly, Tol: 1.1}},
		{"adaptive", StrategyConfig{Strategy: Adaptive, Tol: 1.1, TolD: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hClean, clean := faultedRun(t, tc.sc, false, false)
			if clean.FaultPhases != 0 {
				t.Fatalf("clean run recorded %d fault phases", clean.FaultPhases)
			}
			cleanFinal := hClean.tr.Limit(0)
			if cleanFinal <= 0 || math.IsInf(cleanFinal, 1) {
				t.Fatalf("clean run applied no limit: %v", cleanFinal)
			}

			h, rep := faultedRun(t, tc.sc, true, true)
			if rep.FaultPhases == 0 {
				t.Fatal("no phase was marked faulty")
			}
			if len(rep.FaultSpans) != rep.FaultPhases {
				t.Fatalf("fault spans %d != fault phases %d", len(rep.FaultSpans), rep.FaultPhases)
			}
			// Quarantine: no applied limit anywhere in the run collapsed
			// below the clean level — the degraded measurements never
			// reached the limiter.
			for _, ph := range rep.BLPhases {
				if ph.Value < 0.5*cleanFinal {
					t.Fatalf("limit %v applied at %v — fault feedback leaked into the limiter",
						ph.Value, ph.Start)
				}
			}
			// Recovery: the first limit derived after the window closes is
			// the clean value again — the tainted phases derived none, so
			// this is the first clean phase.
			if got := firstLimitAfter(rep, faultTo); math.Abs(got-cleanFinal)/cleanFinal > 0.1 {
				t.Fatalf("first post-fault limit = %v, want ~%v", got, cleanFinal)
			}
			if got := h.tr.Limit(0); math.Abs(got-cleanFinal)/cleanFinal > 0.1 {
				t.Fatalf("final limit = %v, want ~%v", got, cleanFinal)
			}
		})
	}
}

// TestFaultFeedbackPoisonsLimiterWithoutOracle is the control for the test
// above: same degradation, no oracle — the Direct strategy derives a limit
// from the deflated measurement and collapses below the clean level.
func TestFaultFeedbackPoisonsLimiterWithoutOracle(t *testing.T) {
	sc := StrategyConfig{Strategy: Direct, Tol: 1.1}
	hClean, _ := faultedRun(t, sc, false, false)
	cleanFinal := hClean.tr.Limit(0)

	_, rep := faultedRun(t, sc, true, false)
	if rep.FaultPhases != 0 {
		t.Fatal("no oracle, yet phases were marked faulty")
	}
	poisoned := false
	for _, ph := range rep.BLPhases {
		if ph.Value < 0.5*cleanFinal {
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("degradation did not poison the unprotected limiter — the oracle tests prove nothing")
	}
}

func TestReportCountsFaultPhasesAndSpans(t *testing.T) {
	_, rep := faultedRun(t, StrategyConfig{Strategy: Direct, Tol: 1.1}, true, true)
	if rep.FaultPhases == 0 || len(rep.FaultSpans) == 0 {
		t.Fatalf("fault accounting empty: %d phases, %d spans", rep.FaultPhases, len(rep.FaultSpans))
	}
	for _, sp := range rep.FaultSpans {
		if sp.End <= sp.Start {
			t.Fatalf("degenerate fault span %+v", sp)
		}
	}
	// The report JSON carries the counter.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["fault_phases"]; !ok {
		t.Fatal("fault_phases missing from report JSON")
	}
}

func TestStreamRecordsCarryFaultMarks(t *testing.T) {
	cfg := Config{
		DisableOverhead: true,
		FaultOracle: func(class pfs.Class, from, to des.Time) bool {
			return faultFrom < to && from < faultTo
		},
	}
	h := newHarness(1, StrategyConfig{Strategy: Direct, Tol: 1.1}, cfg)
	sink := &CollectSink{}
	h.tr.SetSink(sink)
	h.run(t, phasedWriter(6, 10e6, des.Second))
	faulty := 0
	for _, rec := range sink.Records {
		if rec.Faulty {
			faulty++
		}
	}
	if faulty == 0 {
		t.Fatal("no streamed record carried the fault mark")
	}
}

func TestStreamRecordFaultFieldsRoundTrip(t *testing.T) {
	rec := StreamRecord{V: StreamVersion, App: "a", Rank: 1, Phase: 2,
		TsSec: 0.5, TeSec: 1.5, B: 1e6, Faulty: true, Retries: 3}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStreamRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Faulty || got.Retries != 3 {
		t.Fatalf("round trip lost fault fields: %+v", got)
	}
	// A pre-fault-era record decodes with the zero values.
	legacy, err := DecodeStreamRecord([]byte(`{"v":1,"rank":0,"phase":0,"ts":0,"te":1,"b":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Faulty || legacy.Retries != 0 {
		t.Fatalf("legacy record grew fault fields: %+v", legacy)
	}
}

// failTwice fails the first two sub-request attempts of the run.
type failTwice struct{ n *int }

func (f failTwice) QueueFactor(pfs.Class) float64 { return 1 }
func (f failTwice) NodeSlowdown(int) float64      { return 1 }
func (f failTwice) ErrorProb(pfs.Class) float64 {
	*f.n++
	if *f.n <= 2 {
		return 1
	}
	return 0
}

// TestPhaseRetriesSummedFromRequests wires a full traced stack against a
// fail-then-recover fault model and checks the per-phase retry counts
// surface in both the report and the stream.
func TestPhaseRetriesSummedFromRequests(t *testing.T) {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: 1})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := Attach(sys, StrategyConfig{}, Config{DisableOverhead: true})
	sink := &CollectSink{}
	tr.SetSink(sink)
	attempts := 0
	sys.SetFaults(failTwice{n: &attempts})
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "t.dat")
		req := f.IwriteAt(0, 10e6)
		r.Compute(des.Second)
		req.Wait()
		r.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	if rep.Retries != 2 {
		t.Fatalf("report retries = %d, want 2", rep.Retries)
	}
	total := 0
	for _, rec := range sink.Records {
		total += rec.Retries
	}
	if total != 2 {
		t.Fatalf("streamed retries = %d, want 2", total)
	}
}
