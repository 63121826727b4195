package pfs

import (
	"iobehind/internal/des"
)

// NoiseConfig describes stochastic capacity perturbation of a channel,
// modelling I/O variability on a production system: other users' traffic,
// network congestion, and slow storage targets. The paper's Fig. 14 shows a
// run where exactly this variability keeps the throughput below the applied
// limit and causes short waiting phases.
type NoiseConfig struct {
	// Interval is the mean time between capacity changes. Actual gaps are
	// exponentially distributed. Must be positive when noise is enabled.
	Interval des.Duration
	// Amplitude in [0,1) scales the typical capacity reduction: the
	// effective capacity is uniform in [base·(1−Amplitude), base].
	Amplitude float64
	// DipProbability is the chance that a change is instead a deep dip to
	// DipFloor·base, modelling transient congestion events.
	DipProbability float64
	// DipFloor in (0,1] is the capacity fraction retained during a dip.
	DipFloor float64
}

func (cfg NoiseConfig) validate() {
	if cfg.Interval <= 0 {
		panic("pfs: noise interval must be positive")
	}
	if cfg.Amplitude < 0 || cfg.Amplitude >= 1 {
		panic("pfs: noise amplitude must be in [0,1)")
	}
}

// maybeStartNoise (re)starts the perturbation loop when a flow arrives on a
// noisy channel. The loop samples a new effective capacity and an
// exponentially distributed gap at each step, and parks itself (restoring
// the base capacity) once the channel drains, so the event queue can empty.
func (c *channel) maybeStartNoise() {
	if c.noise == nil || c.noiseOn {
		return
	}
	c.noiseOn = true
	cfg := *c.noise
	floor := cfg.DipFloor
	if floor <= 0 {
		floor = 0.2
	}
	var step func()
	step = func() {
		if c.active() == 0 {
			c.noiseOn = false
			c.setNoiseFactor(1)
			return
		}
		rng := c.e.Rand()
		factor := 1 - cfg.Amplitude*rng.Float64()
		if cfg.DipProbability > 0 && rng.Float64() < cfg.DipProbability {
			factor = floor
		}
		c.setNoiseFactor(factor)
		gap := des.DurationOf(rng.ExpFloat64() * cfg.Interval.Seconds())
		if gap < des.Millisecond {
			gap = des.Millisecond
		}
		c.e.After(gap, step)
	}
	c.e.After(0, step)
}
