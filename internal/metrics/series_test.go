package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"iobehind/internal/des"
)

func TestSeriesAppendAndAt(t *testing.T) {
	var s Series
	s.Append(10, 1)
	s.Append(20, 2)
	s.Append(20, 3) // same-time overwrite
	s.Append(30, 3) // duplicate value coalesced
	s.Append(40, 0)
	if len(s.Points) != 3 {
		t.Fatalf("points = %v", s.Points)
	}
	cases := map[des.Time]float64{5: 0, 10: 1, 15: 1, 20: 3, 35: 3, 40: 0, 100: 0}
	for at, want := range cases {
		if got := s.At(at); got != want {
			t.Errorf("At(%d) = %v, want %v", at, got, want)
		}
	}
	if s.Max() != 3 {
		t.Fatalf("Max = %v", s.Max())
	}
	if s.End() != 40 {
		t.Fatalf("End = %v", s.End())
	}
}

func TestSeriesBackwardsPanics(t *testing.T) {
	var s Series
	s.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards append did not panic")
		}
	}()
	s.Append(5, 2)
}

func TestSeriesTimeAbove(t *testing.T) {
	var s Series
	sec := func(x float64) des.Time { return des.Time(des.DurationOf(x)) }
	s.Append(sec(0), 10)
	s.Append(sec(2), 1)
	s.Append(sec(4), 20)
	s.Append(sec(6), 0)
	if got := s.TimeAbove(5, sec(0), sec(6)); got != 4*des.Second {
		t.Fatalf("TimeAbove = %v, want 4s", got)
	}
	if got := s.TimeAbove(100, sec(0), sec(6)); got != 0 {
		t.Fatalf("TimeAbove(100) = %v", got)
	}

	// Randomized comparison against the step-by-step reference: at each
	// step, At gives the value and a search gives the next point.
	reference := func(s *Series, threshold float64, from, to des.Time) des.Duration {
		var total des.Duration
		for cur := from; cur < to; {
			v := s.At(cur)
			next := to
			i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > cur })
			if i < len(s.Points) && s.Points[i].T < to {
				next = s.Points[i].T
			}
			if v > threshold {
				total += next.Sub(cur)
			}
			cur = next
		}
		return total
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var r Series
		at := des.Time(rng.Intn(20))
		for n := rng.Intn(12); n > 0; n-- {
			at += des.Time(1 + rng.Intn(10))
			r.Append(at, float64(rng.Intn(4)))
		}
		// Windows from before the first point to past the last, starting
		// and ending on points or inside steps; some are empty or inverted.
		from := des.Time(rng.Intn(int(at) + 10))
		to := from + des.Time(rng.Intn(int(at)+10)) - 3
		threshold := float64(rng.Intn(4)) - 0.5
		if got, want := r.TimeAbove(threshold, from, to), reference(&r, threshold, from, to); got != want {
			t.Fatalf("TimeAbove(%v, %d, %d) = %d, reference %d, points %v",
				threshold, from, to, got, want, r.Points)
		}
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := Interval{Start: 10, End: 20}
	cases := []struct {
		b    Interval
		want des.Duration
	}{
		{Interval{0, 5}, 0},
		{Interval{0, 15}, 5},
		{Interval{12, 18}, 6},
		{Interval{15, 30}, 5},
		{Interval{20, 30}, 0},
		{Interval{10, 20}, 10},
	}
	for _, c := range cases {
		if got := a.Overlap(c.b); got != c.want {
			t.Errorf("Overlap(%v) = %v, want %v", c.b, got, c.want)
		}
	}
	if (Interval{5, 5}).Duration() != 0 || (Interval{9, 5}).Duration() != 0 {
		t.Fatal("degenerate durations")
	}
}

func TestIntervalsAddMergeAndOverlap(t *testing.T) {
	var set Intervals
	set.Add(Interval{0, 10})
	set.Add(Interval{10, 15}) // adjoining: merged
	set.Add(Interval{20, 30})
	set.Add(Interval{40, 40}) // empty: dropped
	if set.Len() != 2 {
		t.Fatalf("len = %d, want 2", set.Len())
	}
	if got, want := set.List(), []Interval{{0, 15}, {20, 30}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	if got := set.OverlapWith(Interval{5, 25}); got != 15 {
		t.Fatalf("overlap = %v, want 15", got)
	}
	if got := set.OverlapWith(Interval{16, 19}); got != 0 {
		t.Fatalf("overlap in gap = %v", got)
	}
}

func TestIntervalsOutOfOrderPanics(t *testing.T) {
	var set Intervals
	set.Add(Interval{10, 20})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order add did not panic")
		}
	}()
	set.Add(Interval{5, 8})
}

func TestIntervalsOverlapProperty(t *testing.T) {
	f := func(gaps []uint8, q0, ql uint16) bool {
		var set Intervals
		var list []Interval
		cur := des.Time(0)
		for i := 0; i+1 < len(gaps) && i < 40; i += 2 {
			cur += des.Time(gaps[i]) + 1
			iv := Interval{Start: cur, End: cur + des.Time(gaps[i+1]) + 1}
			set.Add(iv)
			list = append(list, iv)
			cur = iv.End + 1
		}
		q := Interval{Start: des.Time(q0), End: des.Time(q0) + des.Time(ql)}
		var want des.Duration
		for _, iv := range list {
			want += iv.Overlap(q)
		}
		return set.OverlapWith(q) == want
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
