// Package faults is the deterministic fault-injection subsystem: it
// schedules scripted and seeded-random fault windows against a running
// simulation entirely on the virtual clock (no wall time anywhere — the
// same determinism rules as every other simulation package apply, so a
// seeded fault scenario is byte-for-byte reproducible across runs and
// across sweep parallelism levels).
//
// A fault window is pure data (Window/Config, JSON-marshalable), so a
// fault scenario participates in the sweep cache key exactly like every
// other configuration knob: changing a window invalidates exactly the
// affected points. The runtime side is the Injector, constructed per run
// from the config; it pre-schedules every window boundary on the engine
// and answers point-in-time queries from the layers it degrades:
//
//   - pfs: Degrade/Outage windows scale a channel's effective capacity
//     (composing with the stationary noise model) via PFS.SetFaultFactors.
//   - adio: ServerStall windows stretch the storm-queue latency,
//     Straggler windows slow one node's transfers, IOError windows make
//     sub-requests fail transiently — the agent retries with exponential
//     backoff on the simulated clock (adio.FaultModel is this package's
//     Injector).
//   - tmio: Overlaps is the fault oracle the tracer uses to quarantine
//     B_ij feedback measured inside a window, so an outage cannot poison
//     the next phase's limit.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

// Kind classifies a fault window.
type Kind int

const (
	// Degrade scales the class channel's capacity by Factor in (0,1).
	Degrade Kind = iota
	// Outage drops the class channel's capacity to the file-system floor
	// (pfs clamps to 1 B/s — flows stall for the window but never abort).
	Outage
	// ServerStall multiplies the storm-queue latency of the class by
	// Factor (>= 1): the servers are up but swamped.
	ServerStall
	// Straggler slows every transfer of one node (Window.Node) by Factor
	// (>= 1), on both classes.
	Straggler
	// IOError makes each sub-request of the class fail with probability
	// Prob; the ADIO agent retries with exponential backoff.
	IOError
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Degrade:
		return "degrade"
	case Outage:
		return "outage"
	case ServerStall:
		return "server-stall"
	case Straggler:
		return "straggler"
	case IOError:
		return "io-error"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Window is one scheduled fault: Kind-specific behaviour active during
// [Start, Start+Duration). Pure data — it JSON-encodes into sweep cache
// keys.
type Window struct {
	Kind  Kind         `json:"kind"`
	Class pfs.Class    `json:"class"`
	Start des.Time     `json:"start"`
	Dur   des.Duration `json:"dur"`
	// Factor is the capacity fraction for Degrade (in (0,1)), the latency
	// multiplier for ServerStall, or the slowdown for Straggler (>= 1).
	Factor float64 `json:"factor,omitempty"`
	// Node is the straggler's node id (matched against pfs.Tag.Node).
	Node int `json:"node,omitempty"`
	// Prob is the per-sub-request failure probability for IOError.
	Prob float64 `json:"prob,omitempty"`
}

// End returns the exclusive end of the window.
func (w Window) End() des.Time { return w.Start.Add(w.Dur) }

// overlaps reports whether the window intersects [from, to).
func (w Window) overlaps(from, to des.Time) bool {
	return w.Start < to && from < w.End()
}

// activeAt reports whether the window is in force at t.
func (w Window) activeAt(t des.Time) bool {
	return w.Start <= t && t < w.End()
}

// validate rejects windows the injector cannot schedule.
func (w Window) validate() error {
	if w.Dur <= 0 {
		return fmt.Errorf("faults: %s window at %v has non-positive duration %v", w.Kind, w.Start, w.Dur)
	}
	if w.Start < 0 {
		return fmt.Errorf("faults: %s window starts before t=0", w.Kind)
	}
	switch w.Kind {
	case Degrade:
		if w.Factor <= 0 || w.Factor >= 1 {
			return fmt.Errorf("faults: degrade factor %g outside (0,1)", w.Factor)
		}
	case ServerStall, Straggler:
		if w.Factor < 1 {
			return fmt.Errorf("faults: %s factor %g below 1", w.Kind, w.Factor)
		}
	case IOError:
		if w.Prob <= 0 || w.Prob > 1 {
			return fmt.Errorf("faults: io-error probability %g outside (0,1]", w.Prob)
		}
	}
	return nil
}

// RandomConfig generates seeded-random windows in addition to (or instead
// of) scripted ones: Degrade, ServerStall and IOError windows on the
// write channel. Outage and Straggler are disruptive enough that only
// scripted windows use them. Generation happens at Injector construction
// from its own rand.Rand seeded with Seed, so it never perturbs the
// engine's draw order and is identical across runs and parallelism
// levels.
type RandomConfig struct {
	// Seed drives the generator; 0 defaults to 1.
	Seed int64 `json:"seed"`
	// Count is how many windows to generate.
	Count int `json:"count"`
	// Horizon bounds the window start times: starts are uniform in
	// [0, Horizon).
	Horizon des.Duration `json:"horizon"`
	// MeanDur is the mean (exponential) window duration. Defaults to
	// Horizon/20.
	MeanDur des.Duration `json:"mean_dur,omitempty"`
}

// Config is a complete fault scenario: scripted windows plus an optional
// random batch. The zero value injects nothing. Pure data — embed it in a
// cluster or experiment config and it hashes into the sweep cache key.
type Config struct {
	Windows []Window      `json:"windows,omitempty"`
	Random  *RandomConfig `json:"random,omitempty"`
}

// Empty reports whether the scenario injects nothing.
func (c Config) Empty() bool {
	return len(c.Windows) == 0 && (c.Random == nil || c.Random.Count <= 0)
}

// Resolve returns the scenario's window list: the scripted windows plus
// the generated batch, sorted deterministically. It is a pure function
// of the config; New schedules exactly this list.
func (c Config) Resolve() []Window {
	ws := append([]Window(nil), c.Windows...)
	if c.Random != nil {
		ws = append(ws, c.Random.generate()...)
	}
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Node < b.Node
	})
	return ws
}

// generate materializes the random batch.
func (rc RandomConfig) generate() []Window {
	if rc.Count <= 0 || rc.Horizon <= 0 {
		return nil
	}
	seed := rc.Seed
	if seed == 0 {
		seed = 1
	}
	mean := rc.MeanDur
	if mean <= 0 {
		mean = rc.Horizon / 20
	}
	kinds := [...]Kind{Degrade, ServerStall, IOError}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Window, 0, rc.Count)
	for i := 0; i < rc.Count; i++ {
		w := Window{
			Kind:  kinds[rng.Intn(len(kinds))],
			Class: pfs.Write,
			Start: des.Time(des.DurationOf(rng.Float64() * rc.Horizon.Seconds())),
			Dur:   des.DurationOf(rng.ExpFloat64() * mean.Seconds()),
		}
		if w.Dur < des.Millisecond {
			w.Dur = des.Millisecond
		}
		switch w.Kind {
		case Degrade:
			w.Factor = 0.1 + 0.6*rng.Float64()
		case ServerStall:
			w.Factor = 2 + 8*rng.Float64()
		case IOError:
			w.Prob = 0.05 + 0.25*rng.Float64()
		}
		out = append(out, w)
	}
	return out
}

// Injector is the runtime side of a fault scenario: it owns the resolved
// window list and the currently active fault state, updated by boundary
// events pre-scheduled on the engine. Everything runs on the engine's
// single logical thread.
type Injector struct {
	e  *des.Engine
	fs *pfs.PFS

	windows []Window

	// Active state, recomputed at every window boundary.
	stall   [2]float64      // storm-latency multiplier per class, >= 1
	errProb [2]float64      // sub-request failure probability per class
	slow    map[int]float64 // node -> transfer slowdown, >= 1

	activations int // window starts reached so far
}

// New resolves cfg, schedules every window boundary on the engine, and
// returns the injector. Invalid windows panic: a fault scenario is
// configuration, and bad configuration should fail loudly at
// construction, not mid-run.
func New(e *des.Engine, fs *pfs.PFS, cfg Config) *Injector {
	ws := cfg.Resolve()
	for _, w := range ws {
		if err := w.validate(); err != nil {
			panic(err.Error())
		}
	}
	inj := &Injector{
		e: e, fs: fs,
		windows: ws,
		stall:   [2]float64{1, 1},
		slow:    make(map[int]float64),
	}
	// Boundary events run at PrioEarly so capacity changes are in force
	// before any process activity at the same instant; the channel's
	// recompute runs after PrioLate anyway.
	for _, w := range inj.windows {
		inj.e.Schedule(w.Start, des.PrioEarly, func() {
			inj.activations++
			inj.refresh()
		})
		inj.e.Schedule(w.End(), des.PrioEarly, inj.refresh)
	}
	inj.refresh()
	return inj
}

// refresh recomputes the active fault state from scratch — robust against
// overlapping windows of the same kind (strictest wins) — and pushes the
// capacity factors into the file system.
func (inj *Injector) refresh() {
	now := inj.e.Now()
	capf := [2]float64{1, 1}
	stall := [2]float64{1, 1}
	errp := [2]float64{0, 0}
	clear(inj.slow)
	for _, w := range inj.windows {
		if !w.activeAt(now) {
			continue
		}
		switch w.Kind {
		case Degrade:
			if w.Factor < capf[w.Class] {
				capf[w.Class] = w.Factor
			}
		case Outage:
			capf[w.Class] = 0
		case ServerStall:
			if w.Factor > stall[w.Class] {
				stall[w.Class] = w.Factor
			}
		case Straggler:
			if w.Factor > inj.slow[w.Node] {
				inj.slow[w.Node] = w.Factor
			}
		case IOError:
			if w.Prob > errp[w.Class] {
				errp[w.Class] = w.Prob
			}
		}
	}
	inj.stall = stall
	inj.errProb = errp
	if inj.fs != nil {
		inj.fs.SetFaultFactors(capf[pfs.Write], capf[pfs.Read])
	}
}

// Activations returns how many window starts the simulation has reached.
func (inj *Injector) Activations() int { return inj.activations }

// Overlaps reports whether any fault window affecting the class overlaps
// [from, to). Straggler windows affect both classes (a slow node is slow
// in every direction). This is the fault oracle the tracer uses to
// quarantine feedback measured inside a window.
func (inj *Injector) Overlaps(class pfs.Class, from, to des.Time) bool {
	for _, w := range inj.windows {
		if !w.overlaps(from, to) {
			continue
		}
		if w.Kind == Straggler || w.Class == class {
			return true
		}
	}
	return false
}

// QueueFactor implements adio.FaultModel: the storm-latency multiplier
// currently in force for the class (1 when no server-stall window is
// active).
func (inj *Injector) QueueFactor(class pfs.Class) float64 { return inj.stall[class] }

// NodeSlowdown implements adio.FaultModel: the transfer slowdown of one
// node (1 when the node is healthy).
func (inj *Injector) NodeSlowdown(node int) float64 {
	if f, ok := inj.slow[node]; ok && f > 1 && !math.IsNaN(f) {
		return f
	}
	return 1
}

// ErrorProb implements adio.FaultModel: the transient-failure probability
// per sub-request currently in force for the class.
func (inj *Injector) ErrorProb(class pfs.Class) float64 { return inj.errProb[class] }
