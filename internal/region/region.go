// Package region implements the paper's Eq. 3: aggregating rank-level
// required bandwidths (or throughputs) into an application-level step
// series over the regions where the ranks' I/O phases overlap.
//
// Each rank phase contributes its value on [Start, End). Sorting all start
// and end times yields the region boundaries; the value of a region is the
// sum of the values of the phases covering it. The maximum over regions of
// the required-bandwidth series is the minimal application-level bandwidth
// such that no rank ever waits on a matching blocking operation.
package region

import (
	"slices"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
)

// Phase is one rank-level I/O phase: rank Rank needs (or achieved) Value
// bytes/s over [Start, End).
type Phase struct {
	Rank       int
	Index      int // phase number j within the rank
	Start, End des.Time
	Value      float64
}

// Duration returns the phase window length.
func (p Phase) Duration() des.Duration { return p.End.Sub(p.Start) }

// Sweep builds the application-level step series from rank phases. Phases
// with empty or inverted windows are ignored. The series ends with an
// explicit zero once all phases have been processed.
func Sweep(name string, phases []Phase) *metrics.Series {
	type boundary struct {
		t     des.Time
		delta float64
	}
	events := make([]boundary, 0, 2*len(phases))
	for _, ph := range phases {
		if ph.End <= ph.Start {
			continue
		}
		events = append(events, boundary{t: ph.Start, delta: ph.Value})
		events = append(events, boundary{t: ph.End, delta: -ph.Value})
	}
	// Canonical (time, delta) order: breaking time ties by delta makes
	// runs of equal keys consist of identical values, so the fold below
	// accumulates the same floats in the same order no matter how the
	// input phases were permuted. That determinism is what lets the
	// incremental engine promise bit-identical results to this function
	// under arbitrary arrival order (see incremental.go).
	slices.SortFunc(events, func(a, b boundary) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		case a.delta < b.delta:
			return -1
		case a.delta > b.delta:
			return 1
		}
		return 0
	})

	s := &metrics.Series{Name: name}
	sum := 0.0
	for i := 0; i < len(events); {
		t := events[i].t
		for i < len(events) && events[i].t == t {
			sum += events[i].delta
			i++
		}
		s.Append(t, clampNoise(sum))
	}
	return s
}

// clampNoise absorbs float cancellation noise: a running sum that should
// have returned to zero after matched +v/-v boundaries can land a few
// ulps below it. Shared by the offline fold above and the incremental
// engine so both clamp identically — part of the bit-exactness contract.
func clampNoise(v float64) float64 {
	if v < 0 && v > -1e-9 {
		return 0
	}
	return v
}

// MaxRequired returns the maximum of the swept series — the paper's
// application-level required bandwidth B.
func MaxRequired(phases []Phase) float64 {
	return Sweep("B", phases).Max()
}
