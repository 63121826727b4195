// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated entities run in virtual time, either as goroutine-backed
// processes (MPI ranks, cluster schedulers) or as function events chained
// through completions (the per-rank I/O agents). The engine executes
// exactly one of them at a time and hands control back and forth
// explicitly, so a simulation is fully deterministic: identical inputs and
// seeds produce identical event orderings and results, regardless of
// GOMAXPROCS.
package des

import (
	"fmt"
	"time"
)

// Time is an absolute instant in virtual time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the usual constants (Second, Millisecond, ...) read
// naturally at call sites.
type Duration int64

// Convenient duration units, matching time.Duration's values.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration like time.Duration does.
func (d Duration) String() string { return time.Duration(d).String() }

// DurationOf converts a floating-point number of seconds into a Duration.
// Negative inputs are clamped to zero: virtual time never runs backwards.
func DurationOf(seconds float64) Duration {
	if seconds <= 0 {
		return 0
	}
	return Duration(seconds * float64(Second))
}

// Seconds returns the instant as a floating-point number of seconds since
// the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add advances the instant by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }
