package region

import (
	"math"
	"math/rand"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
)

func ms(n int) des.Time { return des.Time(n) * des.Time(des.Millisecond) }

// diffSeries returns a description of the first divergence between two
// series under exact (bit-level) comparison, or "" when identical.
func diffSeries(got, want *metrics.Series) string {
	if len(got.Points) != len(want.Points) {
		return "length mismatch"
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			return "point mismatch"
		}
	}
	return ""
}

func requireExactMatch(t *testing.T, inc *IncrementalSweep, oracle []Phase) {
	t.Helper()
	off := Sweep("B", oracle)
	got := inc.Series()
	if d := diffSeries(got, off); d != "" {
		t.Fatalf("series diverges from offline Sweep (%s):\n got %v\nwant %v", d, got.Points, off.Points)
	}
	if inc.Max() != off.Max() {
		t.Fatalf("Max() = %v, offline %v (must be bit-identical)", inc.Max(), off.Max())
	}
}

// permute4 mirrors internal/pfs/order_test.go: every order of four
// indices, small enough to enumerate.
var permute4 = [][]int{
	{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}, {0, 2, 1, 3}, {3, 0, 2, 1},
}

// TestIncrementalPermutationDeterministic pins the committed invariant:
// the incremental sweep must reproduce the offline Sweep bit-for-bit no
// matter what order phases arrive in. The phase set is chosen so ties
// bite: coincident boundaries, a start meeting an end, equal values, and
// a non-representable value whose accumulation order would show in the
// low bits if the fold order were permutation-dependent.
func TestIncrementalPermutationDeterministic(t *testing.T) {
	const r = 7.3e6 // deliberately non-representable
	phases := []Phase{
		{Rank: 0, Start: ms(0), End: ms(30), Value: r},
		{Rank: 1, Start: ms(10), End: ms(30), Value: r * 3},
		{Rank: 2, Start: ms(10), End: ms(40), Value: r * 7},
		{Rank: 3, Start: ms(30), End: ms(50), Value: r},
	}
	var want *metrics.Series
	var wantMax float64
	for pi, perm := range permute4 {
		inc := NewIncrementalSweep("B")
		var arrived []Phase
		for _, i := range perm {
			if !inc.Add(phases[i]) {
				t.Fatalf("perm %v: Add(%+v) rejected", perm, phases[i])
			}
			arrived = append(arrived, phases[i])
		}
		// The offline oracle must itself be arrival-order independent
		// (canonical tie-break), and the incremental result must match it.
		requireExactMatch(t, inc, arrived)
		got := inc.Series()
		if pi == 0 {
			want = got
			wantMax = inc.Max()
			continue
		}
		if d := diffSeries(got, want); d != "" {
			t.Fatalf("perm %v: series differs from first permutation (%s)", perm, d)
		}
		if inc.Max() != wantMax {
			t.Fatalf("perm %v: Max %v != %v", perm, inc.Max(), wantMax)
		}
	}
}

// TestSweepPermutationDeterministic pins the offline comparator: with the
// canonical (time, delta) event order, Sweep itself must be bit-identical
// across input permutations — the property the incremental engine's
// equality contract is built on.
func TestSweepPermutationDeterministic(t *testing.T) {
	const r = 11.7e5
	phases := []Phase{
		{Start: ms(0), End: ms(20), Value: r},
		{Start: ms(20), End: ms(40), Value: r * 1.9},
		{Start: ms(0), End: ms(40), Value: r * 0.7},
		{Start: ms(20), End: ms(30), Value: r},
	}
	var want *metrics.Series
	for pi, perm := range permute4 {
		in := make([]Phase, 0, len(phases))
		for _, i := range perm {
			in = append(in, phases[i])
		}
		got := Sweep("B", in)
		if pi == 0 {
			want = got
			continue
		}
		if d := diffSeries(got, want); d != "" {
			t.Fatalf("perm %v: offline Sweep differs from first permutation (%s):\n got %v\nwant %v",
				perm, d, got.Points, want.Points)
		}
	}
}

// TestIncrementalEmpty pins the zero-record case: no phases, and phases
// that are all degenerate, both yield an empty series and zero Max —
// exactly like the offline sweep.
func TestIncrementalEmpty(t *testing.T) {
	inc := NewIncrementalSweep("B")
	requireExactMatch(t, inc, nil)
	if got := inc.Series(); len(got.Points) != 0 {
		t.Fatalf("empty sweep produced points: %v", got.Points)
	}
	if inc.Add(Phase{Start: ms(10), End: ms(10), Value: 5}) {
		t.Fatal("zero-width phase accepted")
	}
	if inc.Add(Phase{Start: ms(10), End: ms(5), Value: 5}) {
		t.Fatal("inverted phase accepted")
	}
	requireExactMatch(t, inc, nil)
	if n, c := inc.Size(); n != 0 || c != 0 {
		t.Fatalf("degenerate phases left state: %d boundaries, %d chunks", n, c)
	}
}

// TestIncrementalRandomOrderAcrossSplits drives enough boundaries through
// the structure to force many chunk splits, in shuffled arrival order
// with heavy time collisions, and requires exact equality throughout.
func TestIncrementalRandomOrderAcrossSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 3000 // 6000 boundaries: well past several chunkMax splits
	phases := make([]Phase, n)
	for i := range phases {
		start := rng.Intn(500) // dense: many coincident boundaries
		dur := 1 + rng.Intn(60)
		phases[i] = Phase{
			Rank:  i % 16,
			Start: ms(start),
			End:   ms(start + dur),
			Value: float64(1+rng.Intn(9)) * 1.37e6,
		}
	}
	rng.Shuffle(n, func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })
	inc := NewIncrementalSweep("B")
	for i, ph := range phases {
		if !inc.Add(ph) {
			t.Fatalf("Add(%+v) rejected", ph)
		}
		// Spot-check mid-stream so intermediate folds are pinned too.
		if i%500 == 499 {
			requireExactMatch(t, inc, phases[:i+1])
		}
	}
	requireExactMatch(t, inc, phases)
	if bounds, chunks := inc.Size(); chunks < 2 {
		t.Fatalf("expected multiple chunks, got %d (%d boundaries)", chunks, bounds)
	}
}

// TestIncrementalReversedArrival is the worst case for the refold: every
// insertion lands at the front. Correctness (exact equality) must hold
// even where the complexity degrades.
func TestIncrementalReversedArrival(t *testing.T) {
	const n = 1500
	phases := make([]Phase, 0, n)
	for i := n - 1; i >= 0; i-- {
		phases = append(phases, Phase{Start: ms(i * 2), End: ms(i*2 + 3), Value: 2.13e6})
	}
	inc := NewIncrementalSweep("B")
	for _, ph := range phases {
		inc.Add(ph)
	}
	requireExactMatch(t, inc, phases)
}

// TestIncrementalCompact pins the retention contract: after compacting
// everything older than a cutoff, (a) Max still equals the full-history
// offline maximum bit-for-bit, (b) the series suffix beyond the horizon
// is bit-identical to the full-history sweep, (c) the live footprint
// shrank and the coarsened tail respects its cap, and (d) phases behind
// the horizon are rejected and counted.
func TestIncrementalCompact(t *testing.T) {
	inc := NewIncrementalSweep("B")
	inc.SetTailCap(8)
	var all []Phase
	// A tall spike early on: Max must survive compaction exactly.
	for i := 0; i < 4000; i++ {
		v := 1.7e6
		if i == 137 {
			v = 9.9e7
		}
		ph := Phase{Start: ms(i * 2), End: ms(i*2 + 3), Value: v}
		all = append(all, ph)
		if !inc.Add(ph) {
			t.Fatalf("Add %d rejected", i)
		}
	}
	before, _ := inc.Size()
	cutoff := ms(6000)
	inc.Compact(cutoff)
	after, _ := inc.Size()
	if after >= before {
		t.Fatalf("Compact did not shrink: %d -> %d boundaries", before, after)
	}
	horizon, ok := inc.Horizon()
	if !ok || horizon >= cutoff {
		t.Fatalf("horizon = %v (ok=%v), want < cutoff %v", horizon, ok, cutoff)
	}

	off := Sweep("B", all)
	if inc.Max() != off.Max() {
		t.Fatalf("Max after compact = %v, full-history %v", inc.Max(), off.Max())
	}

	suffix := func(s *metrics.Series) []metrics.Point {
		var out []metrics.Point
		for _, p := range s.Points {
			if p.T > horizon {
				out = append(out, p)
			}
		}
		return out
	}
	gotSuf, wantSuf := suffix(inc.Series()), suffix(off)
	if len(gotSuf) != len(wantSuf) {
		t.Fatalf("suffix length %d != %d", len(gotSuf), len(wantSuf))
	}
	for i := range gotSuf {
		if gotSuf[i] != wantSuf[i] {
			t.Fatalf("suffix point %d: %+v != %+v", i, gotSuf[i], wantSuf[i])
		}
	}

	// The sketch of the dropped region is bounded and ordered.
	var head int
	for _, p := range inc.Series().Points {
		if p.T <= horizon {
			head++
		}
	}
	if head > 8 {
		t.Fatalf("coarsened tail has %d points, cap 8", head)
	}

	// Late arrival behind the horizon: rejected and counted.
	if inc.Add(Phase{Start: ms(1), End: ms(5), Value: 1}) {
		t.Fatal("phase behind horizon accepted")
	}
	if inc.Late() != 1 {
		t.Fatalf("Late() = %d, want 1", inc.Late())
	}
	// New arrivals ahead of the horizon still fold in and keep the live
	// suffix exact: the carry preserved the running sum across the drop.
	ph := Phase{Start: ms(8100), End: ms(8200), Value: 3.3e6}
	if !inc.Add(ph) {
		t.Fatal("live phase rejected after compact")
	}
	all = append(all, ph)
	off = Sweep("B", all)
	gotSuf, wantSuf = suffix(inc.Series()), suffix(off)
	if len(gotSuf) != len(wantSuf) {
		t.Fatalf("post-compact suffix length %d != %d", len(gotSuf), len(wantSuf))
	}
	for i := range gotSuf {
		if gotSuf[i] != wantSuf[i] {
			t.Fatalf("post-compact suffix point %d: %+v != %+v", i, gotSuf[i], wantSuf[i])
		}
	}
	if inc.Max() != off.Max() {
		t.Fatalf("Max after post-compact adds = %v, full-history %v", inc.Max(), off.Max())
	}
}

// TestIncrementalCompactNoop: a cutoff at or before the first boundary
// drops nothing and changes nothing.
func TestIncrementalCompactNoop(t *testing.T) {
	inc := NewIncrementalSweep("B")
	phases := []Phase{
		{Start: ms(100), End: ms(200), Value: 5e6},
		{Start: ms(150), End: ms(250), Value: 3e6},
	}
	for _, ph := range phases {
		inc.Add(ph)
	}
	inc.Compact(ms(50))
	if _, ok := inc.Horizon(); ok {
		t.Fatal("no-op Compact set a horizon")
	}
	requireExactMatch(t, inc, phases)
}

// TestIncrementalMatchesOfflineMidStream: every mid-run query the
// tracer's online mode answers agrees with the offline sweep over the
// phases added so far, degenerate phases are dropped, and a Series
// snapshot survives later Adds.
func TestIncrementalMatchesOfflineMidStream(t *testing.T) {
	o := NewIncrementalSweep("B")
	if o.Max() != 0 || o.Len() != 0 {
		t.Fatal("empty sweep state")
	}
	sec := func(x float64) des.Time { return des.Time(des.DurationOf(x)) }
	phases := []Phase{
		{Rank: 0, Start: sec(0), End: sec(5), Value: 10},
		{Rank: 1, Start: sec(2), End: sec(7), Value: 20},
		{Rank: 2, Start: sec(4), End: sec(6), Value: 5},
		{Rank: 0, Start: sec(10), End: sec(10), Value: 99}, // degenerate: dropped
	}
	for i, ph := range phases {
		o.Add(ph)
		// Mid-stream queries must reflect everything added so far.
		want := Sweep("B", phases[:i+1]).Max()
		if got := o.Max(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("after %d adds: online max %v, offline %v", i+1, got, want)
		}
	}
	if o.Len() != 3 {
		t.Fatalf("len = %d, want 3 (degenerate dropped)", o.Len())
	}
	// Peak region: [4,5) where all three overlap = 35.
	if got := o.Max(); math.Abs(got-35) > 1e-9 {
		t.Fatalf("max = %v, want 35", got)
	}
	s := o.Series()
	if got := s.At(sec(4.5)); math.Abs(got-35) > 1e-9 {
		t.Fatalf("series at 4.5s = %v", got)
	}
	// Snapshot semantics: adding after a query leaves the old snapshot
	// intact and updates the next one.
	o.Add(Phase{Rank: 3, Start: sec(4), End: sec(5), Value: 100})
	if got := s.At(sec(4.5)); math.Abs(got-35) > 1e-9 {
		t.Fatal("old snapshot mutated")
	}
	if got := o.Max(); math.Abs(got-135) > 1e-9 {
		t.Fatalf("new max = %v", got)
	}
}

// TestIncrementalSnapshotIsolation: a Series snapshot's points are not
// mutated by later Adds, and Len counts accepted phases.
func TestIncrementalSnapshotIsolation(t *testing.T) {
	o := NewIncrementalSweep("B")
	o.Add(Phase{Start: ms(0), End: ms(10), Value: 4e6})
	snap := o.Series()
	before := append([]metrics.Point(nil), snap.Points...)
	o.Add(Phase{Start: ms(5), End: ms(15), Value: 4e6})
	for i := range before {
		if snap.Points[i] != before[i] {
			t.Fatal("earlier snapshot mutated by later Add")
		}
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d, want 2", o.Len())
	}
}
