package region

import (
	"math"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
)

const (
	// chunkMax bounds one chunk's boundary count. A full chunk splits in
	// half before the next insertion, so the slices allocated with this
	// capacity never regrow: the Add path performs no allocations between
	// splits (three per ~chunkMax/2 inserts, amortizing to zero — pinned
	// by BenchmarkIncrementalAdd in the bench-check gate).
	chunkMax = 512
	// defaultTailCap bounds the coarsened-history points Compact keeps.
	defaultTailCap = 64
)

// chunk is one run of consecutive boundary deltas in the global
// (time, delta) order, annotated with the exact state of the sequential
// prefix fold at its edges. Because base/end carry the fold value
// element-for-element — never a chunk-sum shortcut — every cached value
// is bit-identical to what the offline Sweep's single left-to-right
// accumulation produces.
type chunk struct {
	times  []des.Time
	deltas []float64
	// base is the running prefix sum before this chunk's first delta;
	// end is the prefix after its last. end of chunk i is base of i+1.
	base, end float64
	// max is the largest clamped series value attained at a boundary
	// that closes a time group inside this chunk (-Inf when every
	// boundary here continues into the next chunk's leading time group).
	max float64
	// prefMax is the running maximum of max over chunks[0..this], so the
	// global maximum is an O(1) read of the last chunk's prefMax.
	prefMax float64
}

func newChunk() *chunk {
	return &chunk{
		times:  make([]des.Time, 0, chunkMax),
		deltas: make([]float64, 0, chunkMax),
	}
}

// IncrementalSweep maintains the Eq. 3 application-level sweep under
// streaming phase arrival: Add folds one closed phase in without
// re-sorting history, Max is an O(1) read of a maintained aggregate, and
// Series is a straight walk over the boundary chunks — no O(n log n)
// recompute per query, which is what made the gateway's /metrics scrape
// cost grow with every phase ever seen. It is also the paper's online
// aggregation mode inside a run (tmio's Config.OnlineAggregation): an
// I/O scheduler can poll Max for the application-level requirement
// while the application still runs.
//
// The structure is a chunked sorted array of boundary deltas (+Value at
// Start, -Value at End) in (time, delta) order, the same canonical order
// the offline Sweep sorts into. Each chunk caches the exact sequential
// prefix fold at its boundaries, so Series and Max reproduce the offline
// sweep bit-for-bit under ANY arrival permutation — the PR-2
// online-vs-offline equality invariant, now load-bearing for the data
// structure itself (FuzzIncrementalSweep and the permutation tests pin
// it point-for-point, not within a tolerance).
//
// Complexity: Add is O(log n) to locate the insertion point plus a
// refold of the chunks from the insertion point to the end — O(chunkMax)
// for the in-order and near-sorted arrival real streams exhibit (each
// rank emits its phases in time order), degrading gracefully toward
// O(n) for a fully reversed stream, which is still cheaper than the old
// full re-sort per *query*. Max is O(1). Series is O(n) with no sort.
// Every method other than Add and Compact is a pure read, so callers can
// serve queries under a read lock while ingest holds the write lock.
//
// An IncrementalSweep is not goroutine-safe; callers synchronize.
type IncrementalSweep struct {
	name   string
	chunks []*chunk
	n      int // live boundary count across chunks
	phases int // accepted phases, including ones later compacted away

	// carry is the exact prefix fold entering chunks[0]: zero until a
	// Compact drops the entire live window, after which it preserves the
	// fold so later arrivals continue from the true running sum.
	carry float64

	// Retention state (see Compact).
	compacted    bool
	horizon      des.Time
	compactedMax float64
	tail         []metrics.Point
	tailCap      int
	late         int64
}

// NewIncrementalSweep creates an empty aggregator producing a series
// with the given name.
func NewIncrementalSweep(name string) *IncrementalSweep {
	return &IncrementalSweep{name: name, tailCap: defaultTailCap}
}

// SetTailCap bounds the coarsened-history points retained by Compact
// (default 64). Values < 1 are ignored.
func (s *IncrementalSweep) SetTailCap(n int) {
	if n > 0 {
		s.tailCap = n
	}
}

// Len returns the number of accepted phases, including phases whose
// boundaries have since been compacted away.
func (s *IncrementalSweep) Len() int { return s.phases }

// Late returns how many phases were rejected because they started at or
// before the compaction horizon.
func (s *IncrementalSweep) Late() int64 { return s.late }

// Size reports the live boundary and chunk counts — the structure's
// actual memory footprint, which retention keeps bounded.
func (s *IncrementalSweep) Size() (boundaries, chunks int) {
	return s.n, len(s.chunks)
}

// Horizon returns the compaction horizon: the latest boundary time
// folded into the fixed summary. ok is false until Compact first drops
// history.
func (s *IncrementalSweep) Horizon() (des.Time, bool) {
	return s.horizon, s.compacted
}

// Add folds one closed phase into the sweep. Phases may arrive in any
// order across ranks. It returns false — and the phase is not folded —
// when the window is empty or inverted, or when the phase starts at or
// before the compaction horizon (counted in Late: once history is
// summarized, a boundary inside it can no longer join the fold).
func (s *IncrementalSweep) Add(ph Phase) bool {
	if ph.End <= ph.Start {
		return false
	}
	if s.compacted && ph.Start <= s.horizon {
		s.late++
		return false
	}
	c1 := s.insert(ph.Start, ph.Value)
	c2 := s.insert(ph.End, -ph.Value)
	from := c1
	if c2 < from {
		from = c2
	}
	// Start one chunk earlier: an insertion at a chunk's front can turn
	// the previous chunk's trailing boundary into (or out of) a time
	// group that now continues across the chunk seam, changing which of
	// its boundaries count toward max.
	if from > 0 {
		from--
	}
	s.refold(from)
	s.phases++
	return true
}

// Max returns the current application-level required bandwidth: the
// maximum of the Eq. 3 sweep over everything observed so far, including
// compacted history. O(1): the value is maintained by Add.
func (s *IncrementalSweep) Max() float64 {
	m := s.compactedMax // 0 until retention kicks in; Series max is >= 0
	if n := len(s.chunks); n > 0 && s.chunks[n-1].prefMax > m {
		m = s.chunks[n-1].prefMax
	}
	return m
}

// Series builds the application-level step series: a straight walk over
// the chunks continuing each chunk's exact prefix fold. The returned
// series is a fresh snapshot; later Adds do not mutate it, and the walk
// itself mutates nothing. With retention active the head of the series
// is the coarsened tail (one span-maximum point per compacted region);
// the suffix from the horizon on is exact.
func (s *IncrementalSweep) Series() *metrics.Series {
	out := &metrics.Series{Name: s.name}
	out.Points = make([]metrics.Point, 0, len(s.tail)+s.n)
	for _, p := range s.tail {
		out.Append(p.T, p.V)
	}
	for ci, ch := range s.chunks {
		p := ch.base
		hasNext := ci+1 < len(s.chunks)
		var nextT des.Time
		if hasNext {
			nextT = s.chunks[ci+1].times[0]
		}
		for i := range ch.deltas {
			p += ch.deltas[i]
			if i+1 < len(ch.times) {
				if ch.times[i+1] == ch.times[i] {
					continue // same time group: only its last delta lands
				}
			} else if hasNext && nextT == ch.times[i] {
				continue // group continues into the next chunk
			}
			out.Append(ch.times[i], clampNoise(p))
		}
	}
	return out
}

// Compact folds every chunk whose boundaries all lie before cutoff into
// a fixed summary: the running maximum (so Max stays exact over the full
// history) and a coarsened tail of at most tailCap span-maximum points
// (so Series keeps a bounded sketch of the dropped regions). The first
// retained chunk's cached base already carries the exact fold across the
// dropped prefix, so the surviving suffix of the series stays
// bit-identical to the full-history sweep. Phases starting at or before
// the new horizon are rejected by later Adds.
func (s *IncrementalSweep) Compact(cutoff des.Time) {
	drop := 0
	for drop < len(s.chunks) {
		ch := s.chunks[drop]
		if ch.times[len(ch.times)-1] >= cutoff {
			break
		}
		drop++
	}
	if drop == 0 {
		return
	}
	for _, ch := range s.chunks[:drop] {
		if !math.IsInf(ch.max, -1) {
			if ch.max > s.compactedMax {
				s.compactedMax = ch.max
			}
			s.tail = append(s.tail, metrics.Point{T: ch.times[0], V: ch.max})
		}
		s.n -= len(ch.times)
	}
	s.coarsenTail()
	last := s.chunks[drop-1]
	s.horizon = last.times[len(last.times)-1]
	s.carry = last.end
	s.compacted = true
	// Trim in place and nil the vacated slots so the dropped chunks'
	// slices are released to the collector.
	k := copy(s.chunks, s.chunks[drop:])
	for i := k; i < len(s.chunks); i++ {
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:k]
	// Retained prefMax values may still reflect dropped chunks' maxima;
	// the overstatement is harmless because compactedMax has absorbed
	// every dropped maximum and only ever grows.
}

// coarsenTail halves the tail by merging adjacent point pairs (keeping
// the earlier time and the larger value — the span-max envelope) until
// it fits the cap, doubling the summary's granularity each pass.
func (s *IncrementalSweep) coarsenTail() {
	limit := s.tailCap
	if limit <= 0 {
		limit = defaultTailCap
	}
	for len(s.tail) > limit {
		half := (len(s.tail) + 1) / 2
		for i := 0; i < half; i++ {
			p := s.tail[2*i]
			if 2*i+1 < len(s.tail) && s.tail[2*i+1].V > p.V {
				p.V = s.tail[2*i+1].V
			}
			s.tail[i] = p
		}
		s.tail = s.tail[:half]
	}
}

// keyAfter reports whether boundary (bt, bd) orders strictly after
// (t, d) in the canonical (time, delta) order shared with the offline
// Sweep's sort. Runs of fully equal keys are interchangeable, which is
// what makes the fold's float result permutation-independent.
func keyAfter(bt des.Time, bd float64, t des.Time, d float64) bool {
	if bt != t {
		return bt > t
	}
	return bd > d
}

// insert places one boundary delta into its chunk, splitting a full
// chunk first, and returns the index of the chunk that received it.
// Binary searches are hand-rolled loops: sort.Search's closure would
// allocate on every call and the Add path must stay allocation-free.
func (s *IncrementalSweep) insert(t des.Time, d float64) int {
	if len(s.chunks) == 0 {
		ch := newChunk()
		ch.times = append(ch.times, t)
		ch.deltas = append(ch.deltas, d)
		s.chunks = append(s.chunks, ch)
		s.n++
		return 0
	}
	// The target chunk: the last whose first key is <= (t, d), clamped
	// to the first chunk for keys below everything.
	lo, hi := 0, len(s.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ch := s.chunks[mid]
		if keyAfter(ch.times[0], ch.deltas[0], t, d) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	ci := lo - 1
	if ci < 0 {
		ci = 0
	}
	if len(s.chunks[ci].times) >= chunkMax {
		s.split(ci)
		right := s.chunks[ci+1]
		if !keyAfter(right.times[0], right.deltas[0], t, d) {
			ci++
		}
	}
	ch := s.chunks[ci]
	lo, hi = 0, len(ch.times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyAfter(ch.times[mid], ch.deltas[mid], t, d) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	ch.times = ch.times[:len(ch.times)+1]
	copy(ch.times[lo+1:], ch.times[lo:])
	ch.times[lo] = t
	ch.deltas = ch.deltas[:len(ch.deltas)+1]
	copy(ch.deltas[lo+1:], ch.deltas[lo:])
	ch.deltas[lo] = d
	s.n++
	return ci
}

// split divides a full chunk into two halves so the pending insertion
// has room. Aggregates of both halves are rebuilt by the refold that
// every Add runs over the touched suffix.
func (s *IncrementalSweep) split(ci int) {
	ch := s.chunks[ci]
	half := len(ch.times) / 2
	right := newChunk()
	right.times = right.times[:len(ch.times)-half]
	copy(right.times, ch.times[half:])
	right.deltas = right.deltas[:len(ch.deltas)-half]
	copy(right.deltas, ch.deltas[half:])
	ch.times = ch.times[:half]
	ch.deltas = ch.deltas[:half]
	s.chunks = append(s.chunks, nil)
	copy(s.chunks[ci+2:], s.chunks[ci+1:])
	s.chunks[ci+1] = right
}

// refold recomputes base/end/max/prefMax for chunks[from:] by continuing
// the exact sequential fold — the same left-to-right accumulation the
// offline Sweep performs, element by element, never a chunk-sum
// shortcut. This is the whole bit-exactness argument: every cached
// prefix is a value the offline fold also computes.
func (s *IncrementalSweep) refold(from int) {
	for ci := from; ci < len(s.chunks); ci++ {
		ch := s.chunks[ci]
		if ci == 0 {
			ch.base = s.carry
		} else {
			ch.base = s.chunks[ci-1].end
		}
		hasNext := ci+1 < len(s.chunks)
		var nextT des.Time
		if hasNext {
			nextT = s.chunks[ci+1].times[0]
		}
		p := ch.base
		mx := math.Inf(-1)
		for i := range ch.deltas {
			p += ch.deltas[i]
			if i+1 < len(ch.times) {
				if ch.times[i+1] == ch.times[i] {
					continue
				}
			} else if hasNext && nextT == ch.times[i] {
				continue
			}
			if v := clampNoise(p); v > mx {
				mx = v
			}
		}
		ch.end = p
		ch.max = mx
		if ci == 0 {
			ch.prefMax = mx
		} else {
			ch.prefMax = s.chunks[ci-1].prefMax
			if mx > ch.prefMax {
				ch.prefMax = mx
			}
		}
	}
}
