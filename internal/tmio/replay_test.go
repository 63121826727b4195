package tmio

import (
	"math"
	"strings"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/region"
)

// steadyPhases builds a constant-requirement phase sequence for one rank:
// B = 100 MB/s over 1 s windows.
func steadyPhases(n int) []region.Phase {
	sec := des.Time(des.Second)
	phases := make([]region.Phase, n)
	for i := range phases {
		phases[i] = region.Phase{
			Rank: 0, Index: i,
			Start: des.Time(i) * sec, End: des.Time(i+1) * sec,
			Value: 100e6,
		}
	}
	return phases
}

func TestReplaySteadyDirect(t *testing.T) {
	res := Replay(steadyPhases(10), StrategyConfig{Strategy: Direct, Tol: 1.1})
	if len(res.Phases) != 10 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	// Phase 0 runs unlimited; later phases are paced at 110 MB/s over
	// 100 MB windows: duration = 1/1.1 s, no waiting, ~91% exploit.
	if res.Phases[0].Limit != math.Inf(1) {
		t.Fatal("phase 0 should be unlimited")
	}
	for _, ph := range res.Phases[1:] {
		if math.Abs(ph.Limit-110e6)/110e6 > 1e-9 {
			t.Fatalf("limit = %v", ph.Limit)
		}
		if ph.Wait != 0 {
			t.Fatalf("steady replay waited: %v", ph.Wait)
		}
	}
	if res.TotalWait != 0 {
		t.Fatal("total wait")
	}
	// 9 of 10 windows exploited at ~1/1.1 each.
	want := 9.0 / 1.1 / 10.0
	if math.Abs(res.ExploitShare()-want) > 0.01 {
		t.Fatalf("exploit share = %v, want %v", res.ExploitShare(), want)
	}
	if !strings.Contains(res.String(), "direct") {
		t.Fatal("String")
	}
}

func TestReplayDirectWaitsOnShrinkingWindow(t *testing.T) {
	// Requirement doubles midway: a direct tol=1.0 limit derived from the
	// low phase forces waiting in the first high phase.
	sec := des.Time(des.Second)
	phases := []region.Phase{
		{Rank: 0, Index: 0, Start: 0, End: sec, Value: 50e6},
		{Rank: 0, Index: 1, Start: sec, End: 2 * sec, Value: 50e6},
		{Rank: 0, Index: 2, Start: 2 * sec, End: 3 * sec, Value: 100e6},
	}
	res := Replay(phases, StrategyConfig{Strategy: Direct, Tol: 1.0})
	// Phase 2: 100 MB over a 1 s window, limit 50 MB/s → 2 s duration,
	// 1 s projected wait.
	last := res.Phases[2]
	if math.Abs(last.Wait.Seconds()-1) > 1e-6 {
		t.Fatalf("projected wait = %v, want 1s", last.Wait)
	}
	// Up-only with a high starting phase would not have waited less here,
	// but a larger tolerance removes the wait entirely.
	relaxed := Replay(phases, StrategyConfig{Strategy: Direct, Tol: 2.0})
	if relaxed.TotalWait != 0 {
		t.Fatalf("tol=2 replay still waits: %v", relaxed.TotalWait)
	}
}

func TestReplayUpOnlyNeverWaitsOnDecreasingLoad(t *testing.T) {
	sec := des.Time(des.Second)
	var phases []region.Phase
	values := []float64{200e6, 100e6, 50e6, 200e6}
	for i, v := range values {
		phases = append(phases, region.Phase{
			Rank: 0, Index: i,
			Start: des.Time(i) * sec, End: des.Time(i+1) * sec, Value: v,
		})
	}
	up := Replay(phases, StrategyConfig{Strategy: UpOnly, Tol: 1.1})
	if up.TotalWait != 0 {
		t.Fatalf("up-only replay waited %v", up.TotalWait)
	}
	direct := Replay(phases, StrategyConfig{Strategy: Direct, Tol: 1.1})
	// Direct latched onto the 50 MB/s phase and pays for it at the jump
	// back to 200 MB/s.
	if direct.TotalWait <= 0 {
		t.Fatal("direct replay should wait at the jump")
	}
}

func TestReplayMultiRankAndDegenerate(t *testing.T) {
	sec := des.Time(des.Second)
	phases := []region.Phase{
		{Rank: 1, Index: 0, Start: 0, End: sec, Value: 10e6},
		{Rank: 0, Index: 0, Start: 0, End: sec, Value: 20e6},
		{Rank: 0, Index: 1, Start: sec, End: 2 * sec, Value: 20e6},
		{Rank: 2, Index: 0, Start: 0, End: 0, Value: 99e6},  // degenerate
		{Rank: 2, Index: 1, Start: 0, End: sec, Value: -10}, // degenerate
	}
	res := Replay(phases, StrategyConfig{Strategy: Direct, Tol: 1.1})
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (degenerate dropped)", len(res.Phases))
	}
	// Ranks are replayed independently: rank 0's second phase uses rank
	// 0's first B, not rank 1's.
	var rank0second ReplayPhase
	for _, ph := range res.Phases {
		if ph.Rank == 0 && ph.Index == 1 {
			rank0second = ph
		}
	}
	if math.Abs(rank0second.Limit-22e6)/22e6 > 1e-9 {
		t.Fatalf("rank 0 phase 1 limit = %v, want 22e6", rank0second.Limit)
	}
}

func TestReplayFrequentUsesMode(t *testing.T) {
	sec := des.Time(des.Second)
	var phases []region.Phase
	values := []float64{100e6, 100e6, 100e6, 800e6, 100e6}
	for i, v := range values {
		phases = append(phases, region.Phase{
			Rank: 0, Index: i,
			Start: des.Time(i) * sec, End: des.Time(i+1) * sec, Value: v,
		})
	}
	res := Replay(phases, StrategyConfig{Strategy: Frequent, Tol: 1.1})
	// After the outlier (phase 3), the frequent strategy stays at the
	// 100 MB/s mode for phase 4.
	last := res.Phases[4]
	if math.Abs(last.Limit-110e6)/110e6 > 0.01 {
		t.Fatalf("frequent limit = %v, want 110e6", last.Limit)
	}
}

func TestCompareStrategies(t *testing.T) {
	phases := steadyPhases(5)
	results := []*ReplayResult{
		Replay(phases, StrategyConfig{Strategy: Direct, Tol: 1.1}),
		Replay(phases, StrategyConfig{Strategy: UpOnly, Tol: 1.1}),
		Replay(phases, StrategyConfig{}),
	}
	// On steady load, direct and up-only agree; 'none' never exploits.
	if math.Abs(results[0].ExploitShare()-results[1].ExploitShare()) > 1e-9 {
		t.Fatal("direct and up-only diverge on steady load")
	}
	if results[2].ExploitShare() != 0 {
		t.Fatalf("unlimited replay exploit = %v", results[2].ExploitShare())
	}
}

// TestReplayMatchesLiveRun: for every limiting strategy, the replay
// derives exactly the limits the live tracer applied from the same B_ij.
func TestReplayMatchesLiveRun(t *testing.T) {
	sizes := []int64{20e6, 40e6, 10e6, 30e6, 10e6, 10e6, 80e6, 10e6}
	for _, s := range []Strategy{Direct, UpOnly, Adaptive, Frequent} {
		strat := StrategyConfig{Strategy: s, Tol: 1.5}
		h := newHarness(2, strat, Config{DisableOverhead: true})
		rep := h.run(t, func(r *mpi.Rank, f *mpiio.File) {
			var req *mpiio.Request
			for _, n := range sizes {
				if req != nil {
					req.Wait()
				}
				req = f.IwriteAt(0, n*int64(r.ID()+1))
				r.Compute(des.Second)
			}
			req.Wait()
		})
		replayed := Replay(rep.BPhases, strat)
		// Live B_L of phase j records the limit derived from it, the
		// limit the replay applies to phase j+1.
		live := map[[2]int]float64{}
		for _, ph := range rep.BLPhases {
			live[[2]int{ph.Rank, ph.Index}] = ph.Value
		}
		matched := 0
		for _, ph := range replayed.Phases {
			if ph.Index == 0 {
				continue
			}
			want, ok := live[[2]int{ph.Rank, ph.Index - 1}]
			if !ok {
				t.Fatalf("%s: rank %d phase %d has no live limit", s, ph.Rank, ph.Index-1)
			}
			if ph.Limit != want {
				t.Fatalf("%s: rank %d phase %d: replay limit %v, live %v",
					s, ph.Rank, ph.Index, ph.Limit, want)
			}
			matched++
		}
		if want := 2 * (len(sizes) - 1); matched != want {
			t.Fatalf("%s: compared %d limits, want %d", s, matched, want)
		}
	}
}
