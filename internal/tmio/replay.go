package tmio

import (
	"fmt"
	"sort"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
	"iobehind/internal/region"
)

// Replay answers the what-if question the traced data enables: given the
// required bandwidths B_ij measured in one run, what would a different
// strategy (or tolerance) have done? For each rank the phases are replayed
// in order: the strategy derives the limit for phase j+1 from B_ij exactly
// as it would have online, and the projected I/O duration bytes/limit is
// compared against the actually available window. The result predicts the
// waiting time and compute-phase exploitation of the hypothetical run —
// without re-running the application.
//
// This is the analysis path the paper gestures at when it offers the
// required bandwidth "to other bandwidth-limiting approaches": recorded
// requirements are enough to evaluate a policy offline.
type ReplayPhase struct {
	Rank   int
	Index  int
	B      float64      // measured required bandwidth
	Window des.Duration // measured available window
	Limit  float64      // the limit the replayed strategy applies here
	// Projected outcomes under the replayed limit:
	Duration des.Duration // bytes / limit (capped at window when unlimited)
	Wait     des.Duration // max(0, Duration − Window)
	Exploit  des.Duration // min(Duration, Window)
}

// ReplayResult aggregates one replayed strategy.
type ReplayResult struct {
	Strategy    StrategyConfig
	Phases      []ReplayPhase
	TotalWait   des.Duration
	TotalWindow des.Duration
	TotalHidden des.Duration
}

// WaitShare returns projected waiting as a fraction of the total windows.
func (r *ReplayResult) WaitShare() float64 {
	if r.TotalWindow <= 0 {
		return 0
	}
	return r.TotalWait.Seconds() / r.TotalWindow.Seconds()
}

// ExploitShare returns projected hidden-I/O time as a fraction of the
// total windows.
func (r *ReplayResult) ExploitShare() float64 {
	if r.TotalWindow <= 0 {
		return 0
	}
	return r.TotalHidden.Seconds() / r.TotalWindow.Seconds()
}

func (r *ReplayResult) String() string {
	return fmt.Sprintf("replay %s: wait %.2f%%, exploit %.2f%% of windows",
		r.Strategy.Label(), 100*r.WaitShare(), 100*r.ExploitShare())
}

// Replay runs the strategy over recorded phases (e.g. Report.BPhases).
// Phases are grouped per rank and replayed in Index order. Degenerate
// phases (zero window or B) are skipped, as the online tracer skips them.
func Replay(phases []region.Phase, strat StrategyConfig) *ReplayResult {
	strat = strat.WithDefaults()
	byRank := make(map[int][]region.Phase)
	for _, ph := range phases {
		if ph.Value <= 0 || ph.End <= ph.Start {
			continue
		}
		byRank[ph.Rank] = append(byRank[ph.Rank], ph)
	}
	ranks := make([]int, 0, len(byRank))
	for rank := range byRank {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)

	res := &ReplayResult{Strategy: strat}
	for _, rank := range ranks {
		seq := byRank[rank]
		sort.Slice(seq, func(i, j int) bool { return seq[i].Index < seq[j].Index })
		loop := newLimiter(strat)
		for _, ph := range seq {
			limit := loop.limit
			window := ph.End.Sub(ph.Start)
			bytes := ph.Value * window.Seconds()

			rp := ReplayPhase{
				Rank: rank, Index: ph.Index,
				B: ph.Value, Window: window, Limit: limit,
			}
			if limit == pfs.Unlimited {
				// Unlimited: the burst is assumed instantaneous relative
				// to the window (the recorded run's actual transfer time
				// is not part of the B record).
				rp.Duration = 0
			} else {
				rp.Duration = des.DurationOf(bytes / limit)
			}
			if rp.Duration > window {
				rp.Wait = rp.Duration - window
				rp.Exploit = window
			} else {
				rp.Exploit = rp.Duration
			}
			res.Phases = append(res.Phases, rp)
			res.TotalWait += rp.Wait
			res.TotalWindow += window
			res.TotalHidden += rp.Exploit

			// Derive the next limit exactly as the online tracer does.
			loop.limit = loop.next(ph.Value)
			loop.lastB = ph.Value
		}
	}
	return res
}
