package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a reported tail
// percentile: a tail read off fewer samples is one slow op, not a tail.
const minBeyond = 10

// errTooFewSamples reports a sample set too small for a tail percentile.
var errTooFewSamples = errors.New("too few samples for a tail percentile")

// summary is the timing summary of one sample set.
type summary struct {
	n      int
	p50    float64 // median, in the samples' unit
	tailP  int     // the tail percentile reported
	tail   float64 // the value at tailP
	beyond int     // samples ranked above the tail value
}

// summarize sorts a copy of xs and returns its median and the highest
// whole percentile with at least minBeyond samples ranked above it
// (nearest-rank definition: percentile p is the ceil(p·n/100)-th
// smallest sample).
func summarize(xs []float64) (summary, error) {
	n := len(xs)
	p, k := tailRank(n)
	if p == 0 {
		return summary{}, fmt.Errorf("%w: %d, need %d", errTooFewSamples, n, 2*minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{n: n, p50: median(s), tailP: p, tail: s[k-1], beyond: n - k}, nil
}

// tailRank returns the highest whole percentile p in [50, 99] whose
// nearest rank k leaves at least minBeyond of n samples above it, or
// p = 0 when not even the median does.
func tailRank(n int) (p, k int) {
	for p = 99; p >= 50; p-- {
		k = (p*n + 99) / 100
		if n-k >= minBeyond {
			return p, k
		}
	}
	return 0, 0
}

// median of sorted values (mean of the middle two for even lengths).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of unsorted values.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
