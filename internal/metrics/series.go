// Package metrics provides the small time-series and interval toolkit
// shared by the tracer, the aggregators, and the experiment harness.
package metrics

import (
	"fmt"
	"sort"

	"iobehind/internal/des"
)

// Point is one sample of a step series: the series holds value V from time
// T until the next point.
type Point struct {
	T des.Time
	V float64
}

// Series is a step function over virtual time. Points must be appended in
// non-decreasing time order.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample; equal-time updates overwrite the previous value and
// consecutive duplicates are coalesced.
func (s *Series) Append(t des.Time, v float64) {
	n := len(s.Points)
	if n > 0 {
		last := &s.Points[n-1]
		if t < last.T {
			panic(fmt.Sprintf("metrics: series %q time went backwards: %v < %v", s.Name, t, last.T))
		}
		if t == last.T {
			last.V = v
			return
		}
		//iolint:ignore floateq exact bit-equality is the intent: it only coalesces perfectly duplicate step points, and a missed match merely stores a redundant point
		if last.V == v {
			return
		}
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// At returns the series value at time t (0 before the first point).
func (s *Series) At(t des.Time) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].V
}

// Max returns the largest value in the series (0 if empty).
func (s *Series) Max() float64 {
	var max float64
	for _, p := range s.Points {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// TimeAbove returns the total time the series is strictly above threshold
// within [from, to). One binary search finds the step holding from; the
// rest is a forward walk over the points inside the window.
func (s *Series) TimeAbove(threshold float64, from, to des.Time) des.Duration {
	if to <= from {
		return 0
	}
	pts := s.Points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > from })
	var v float64 // the value at cur: 0 before the first point
	if i > 0 {
		v = pts[i-1].V
	}
	var total des.Duration
	cur := from
	for ; i < len(pts) && pts[i].T < to; i++ {
		if v > threshold {
			total += pts[i].T.Sub(cur)
		}
		cur, v = pts[i].T, pts[i].V
	}
	if v > threshold {
		total += to.Sub(cur)
	}
	return total
}

// End returns the time of the last point (0 if empty).
func (s *Series) End() des.Time {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].T
}

// Interval is a half-open span [Start, End) of virtual time.
type Interval struct {
	Start, End des.Time
}

// Duration returns End−Start (0 for inverted intervals).
func (iv Interval) Duration() des.Duration {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// Overlap returns the length of the intersection of two intervals.
func (iv Interval) Overlap(other Interval) des.Duration {
	start := iv.Start
	if other.Start > start {
		start = other.Start
	}
	end := iv.End
	if other.End < end {
		end = other.End
	}
	if end <= start {
		return 0
	}
	return end.Sub(start)
}

// Intervals is an ordered list of disjoint intervals (e.g. the spans a
// rank spent blocked in MPI_Wait). Add must be called in time order.
type Intervals struct {
	list []Interval
}

// Add appends an interval; empty ones are dropped, and an interval
// adjoining the previous end is merged.
func (s *Intervals) Add(iv Interval) {
	if iv.Duration() == 0 {
		return
	}
	if n := len(s.list); n > 0 {
		if iv.Start < s.list[n-1].End {
			panic("metrics: intervals added out of order")
		}
		if iv.Start == s.list[n-1].End {
			s.list[n-1].End = iv.End
			return
		}
	}
	s.list = append(s.list, iv)
}

// Len returns the number of stored intervals.
func (s *Intervals) Len() int { return len(s.list) }

// OverlapWith returns how much of iv intersects the stored intervals.
func (s *Intervals) OverlapWith(iv Interval) des.Duration {
	// Binary search for the first stored interval that might intersect.
	i := sort.Search(len(s.list), func(i int) bool { return s.list[i].End > iv.Start })
	var d des.Duration
	for ; i < len(s.list) && s.list[i].Start < iv.End; i++ {
		d += s.list[i].Overlap(iv)
	}
	return d
}

// List returns the stored intervals in time order (a copy).
func (s *Intervals) List() []Interval {
	return append([]Interval(nil), s.list...)
}
