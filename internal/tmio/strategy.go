package tmio

import (
	"fmt"
	"math"

	"iobehind/internal/pfs"
)

// Strategy selects how a measured required bandwidth B_ij becomes the
// throughput limit of the next phase (paper Sec. IV-B).
type Strategy int

const (
	// None traces without limiting.
	None Strategy = iota
	// Direct sets the next limit to B_ij · Tol. The aggressive strategy:
	// highest exploitation of the compute phases, highest risk of waiting
	// when the next phase shrinks.
	Direct
	// UpOnly only ever raises the limit (monotone non-decreasing
	// B_ij · Tol). The safe strategy: least waiting, least exploitation.
	UpOnly
	// Adaptive blends the level and the trend, mimicking a PI controller:
	// limit = B_ij·Tol + (B_ij − B_i,j−1)·TolD.
	Adaptive
	// Frequent implements the paper's proposed future improvement, "a
	// most frequently used table of accesses": measured bandwidths are
	// bucketed (logarithmically), and the limit follows the historically
	// most frequent bucket instead of only the last phase. One-off
	// outliers — a phase that happened to be short or an unusually large
	// request — no longer whip the limit around.
	Frequent
)

// String returns the strategy name used in reports.
func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case Direct:
		return "direct"
	case UpOnly:
		return "up-only"
	case Adaptive:
		return "adaptive"
	case Frequent:
		return "frequent"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy is the inverse of Strategy.String; it also accepts
// "uponly" for UpOnly.
func ParseStrategy(name string) (Strategy, error) {
	if name == "uponly" {
		return UpOnly, nil
	}
	for s := None; s <= Frequent; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return None, fmt.Errorf("tmio: unknown strategy %q (want none, direct, up-only, adaptive or frequent)", name)
}

// StrategyConfig is a strategy with its tolerance values. The tolerance
// compensates for effects invisible at the MPI level, such as I/O threads
// competing with compute threads for resources.
type StrategyConfig struct {
	Strategy Strategy
	// Tol scales the measured bandwidth. Defaults to 1.1.
	Tol float64
	// TolD scales the trend term of the adaptive strategy. Defaults to 0.5.
	TolD float64
}

// WithDefaults returns the config with zero tolerances filled in.
func (c StrategyConfig) WithDefaults() StrategyConfig {
	if c.Tol <= 0 {
		c.Tol = 1.1
	}
	if c.TolD <= 0 {
		c.TolD = 0.5
	}
	return c
}

// limiter is one control loop of the limiting strategy: the limit in
// force, the last clean required bandwidth, and the Frequent strategy's
// histogram. The tracer keeps one per rank (one per class under
// PerClassLimits) and Replay one per replayed rank, so both derive limits
// through next.
type limiter struct {
	strat StrategyConfig // with defaults applied
	// limit is in force for the current phase (pfs.Unlimited before the
	// first); lastB is the last clean B fed to the loop (0 before any).
	limit float64
	lastB float64
	// Frequent's histogram over logarithmic buckets: observation count
	// and largest B seen per bucket.
	counts map[int]int
	peak   map[int]float64
}

func newLimiter(strat StrategyConfig) limiter {
	return limiter{strat: strat.WithDefaults(), limit: pfs.Unlimited}
}

// next derives the limit for the phase after one that measured the clean
// requirement b > 0. It neither applies the limit nor records b: the
// caller sets limit and lastB.
func (l *limiter) next(b float64) float64 {
	c := l.strat
	switch c.Strategy {
	case Direct:
		return b * c.Tol
	case UpOnly:
		if next := b * c.Tol; l.limit == pfs.Unlimited || l.limit <= next {
			return next
		}
		return l.limit
	case Adaptive:
		next := b * c.Tol
		if l.lastB > 0 {
			next += (b - l.lastB) * c.TolD
		}
		// The trend term must not push the limit below the requirement
		// just measured: a limit under B guarantees waiting, and the wait
		// inflates the next window, which lowers the next B — a feedback
		// spiral down to the floor. Clamping at B keeps the strategy
		// "between" direct and up-only, as the paper describes it.
		return math.Max(next, b)
	case Frequent:
		if l.counts == nil {
			l.counts = make(map[int]int)
			l.peak = make(map[int]float64)
		}
		k := bucketOf(b)
		l.counts[k]++
		l.peak[k] = math.Max(l.peak[k], b)
		// tol times the largest B of the most frequent bucket; ties break
		// toward the higher bucket (safer).
		best, bestCount := math.MinInt32, 0
		for k, n := range l.counts {
			if n > bestCount || (n == bestCount && k > best) {
				best, bestCount = k, n
			}
		}
		return l.peak[best] * c.Tol
	default:
		return pfs.Unlimited
	}
}

// bucketOf maps a bandwidth to its logarithmic bucket (quarter-octave
// resolution: four buckets per factor of two).
func bucketOf(b float64) int { return int(math.Floor(4 * math.Log2(b))) }

// Limits reports whether the strategy applies bandwidth limits at all.
func (c StrategyConfig) Limits() bool { return c.Strategy != None }

// Label returns a short human-readable description, e.g. "direct(tol=2)".
func (c StrategyConfig) Label() string {
	if c.Strategy == None {
		return "none"
	}
	d := c.WithDefaults()
	if c.Strategy == Adaptive {
		return fmt.Sprintf("%s(tol=%g,tolD=%g)", d.Strategy, d.Tol, d.TolD)
	}
	return fmt.Sprintf("%s(tol=%g)", d.Strategy, d.Tol)
}
