package tmio

import (
	"math"

	"fmt"

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

// NextLimit computes the limit for phase j+1 from the bandwidth measured in
// phase j (b), the previous phase's bandwidth (prevB, with havePrev false
// on the first phase), and the limit currently in force. The Frequent
// strategy is stateful; it is computed by FrequencyTable instead.
func (c StrategyConfig) NextLimit(current, b, prevB float64, havePrev bool) float64 {
	c = c.WithDefaults()
	switch c.Strategy {
	case Direct:
		return b * c.Tol
	case UpOnly:
		next := b * c.Tol
		if current != pfs.Unlimited && current > next {
			return current
		}
		return next
	case Adaptive:
		next := b * c.Tol
		if havePrev {
			next += (b - prevB) * c.TolD
		}
		// The trend term must not push the limit below the requirement
		// just measured: a limit under B guarantees waiting, and the wait
		// inflates the next window, which lowers the next B — a feedback
		// spiral down to the floor. Clamping at B keeps the strategy
		// "between" direct and up-only, as the paper describes it.
		if next < b {
			next = b
		}
		return next
	default:
		return pfs.Unlimited
	}
}

// FrequencyTable is the per-rank state of the Frequent strategy: a
// histogram of measured required bandwidths over logarithmic buckets.
type FrequencyTable struct {
	counts map[int]int     // bucket → observation count
	peak   map[int]float64 // bucket → largest B observed in it
}

// bucketOf maps a bandwidth to its logarithmic bucket (quarter-octave
// resolution: buckets per factor-of-two of bandwidth).
func bucketOf(b float64) int {
	if b <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(4 * math.Log2(b)))
}

// Observe records a measured required bandwidth.
func (f *FrequencyTable) Observe(b float64) {
	if b <= 0 {
		return
	}
	if f.counts == nil {
		f.counts = make(map[int]int)
		f.peak = make(map[int]float64)
	}
	k := bucketOf(b)
	f.counts[k]++
	if b > f.peak[k] {
		f.peak[k] = b
	}
}

// Limit returns tol times the largest bandwidth seen in the most frequent
// bucket (ties break toward the higher bucket: safer). It returns
// pfs.Unlimited before any observation.
func (f *FrequencyTable) Limit(tol float64) float64 {
	if len(f.counts) == 0 {
		return pfs.Unlimited
	}
	bestBucket, bestCount := math.MinInt32, 0
	for k, n := range f.counts {
		if n > bestCount || (n == bestCount && k > bestBucket) {
			bestBucket, bestCount = k, n
		}
	}
	return f.peak[bestBucket] * tol
}

// Observations returns the total number of recorded bandwidths.
func (f *FrequencyTable) Observations() int {
	total := 0
	for _, n := range f.counts {
		total += n
	}
	return total
}

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
