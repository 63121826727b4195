package pfs

import (
	"math"
	"sort"
	"testing"

	"iobehind/internal/des"
)

// refChannel is the O(n) reference the heap-based channel is checked
// against. It keeps every flow in one slice in start order, finds the
// finished flows by a linear scan, and sorts them into the order the heap
// pops them. It shares the arithmetic with channel (projectFinish, the
// level quotient, the served counter) but none of its bookkeeping: no
// heap, no prefix argument.
type refChannel struct {
	e           *des.Engine
	base        float64
	capacity    float64
	noiseFactor float64
	faultFactor float64
	noise       *NoiseConfig
	noiseOn     bool
	flows       []*refFlow
	served      float64
	level       float64
	projAt      des.Time
	projServed  float64
	projLevel   float64
	last        des.Time
	seq         uint64
	cancel      des.Handle
	dirty       bool
	observer    func(now des.Time, flows []*refFlow)
}

type refFlow struct {
	seq     uint64
	vfinish float64
	done    *des.Completion
}

func (c *refChannel) rate(f *refFlow) float64 {
	if f.done.Done() {
		return 0
	}
	return c.level
}

func newRefChannel(e *des.Engine, capacity float64, noise *NoiseConfig) *refChannel {
	return &refChannel{e: e, base: capacity, capacity: capacity,
		noiseFactor: 1, faultFactor: 1, noise: noise}
}

func (c *refChannel) start(bytes float64) *refFlow {
	f := &refFlow{done: des.NewCompletion(c.e)}
	if bytes <= 0 {
		f.done.Complete()
		return f
	}
	c.integrate()
	c.seq++
	f.seq = c.seq
	f.vfinish = c.served + bytes
	c.flows = append(c.flows, f)
	c.markDirty()
	c.startNoise()
	return f
}

func (c *refChannel) setFaultFactor(f float64) {
	c.faultFactor = math.Min(math.Max(f, 0), 1)
	c.applyFactors()
}

func (c *refChannel) applyFactors() {
	capacity := c.base * c.noiseFactor * c.faultFactor
	if capacity <= 0 {
		capacity = 1
	}
	if capacity == c.capacity {
		return
	}
	c.integrate()
	c.capacity = capacity
	c.markDirty()
}

// startNoise mirrors maybeStartNoise step for step, so both engines draw
// the same random numbers at the same instants.
func (c *refChannel) startNoise() {
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
		if len(c.flows) == 0 {
			c.noiseOn = false
			c.noiseFactor = 1
			c.applyFactors()
			return
		}
		rng := c.e.Rand()
		factor := 1 - cfg.Amplitude*rng.Float64()
		if cfg.DipProbability > 0 && rng.Float64() < cfg.DipProbability {
			factor = floor
		}
		c.noiseFactor = factor
		c.applyFactors()
		gap := des.DurationOf(rng.ExpFloat64() * cfg.Interval.Seconds())
		if gap < des.Millisecond {
			gap = des.Millisecond
		}
		c.e.After(gap, step)
	}
	c.e.After(0, step)
}

func (c *refChannel) integrate() {
	now := c.e.Now()
	dt := now.Sub(c.last).Seconds()
	c.last = now
	if dt <= 0 {
		return
	}
	c.served += c.level * dt
}

func (c *refChannel) markDirty() {
	if c.dirty {
		return
	}
	c.dirty = true
	c.e.Schedule(c.e.Now(), des.PrioLate+1, func() {
		c.dirty = false
		c.recompute()
	})
}

func (c *refChannel) finished(f *refFlow, now des.Time) bool {
	if f.vfinish <= c.served {
		return true
	}
	at := projectFinish(c.projAt, f.vfinish-c.projServed, c.projLevel)
	return at != 0 && at <= now
}

func (c *refChannel) recompute() {
	c.integrate()
	now := c.e.Now()
	var done, live []*refFlow
	for _, f := range c.flows {
		if c.finished(f, now) {
			done = append(done, f)
		} else {
			live = append(live, f)
		}
	}
	c.flows = live
	// Flows finishing at one instant complete in (virtual finish, start)
	// order.
	sort.Slice(done, func(i, j int) bool {
		if done[i].vfinish != done[j].vfinish {
			return done[i].vfinish < done[j].vfinish
		}
		return done[i].seq < done[j].seq
	})
	for _, f := range done {
		f.done.Complete()
	}

	c.level = 0
	if len(live) == 0 {
		c.served = 0
	} else {
		c.level = c.capacity / float64(len(live))
	}
	var next des.Time
	for _, f := range live {
		at := projectFinish(now, f.vfinish-c.served, c.level)
		if at != 0 && (next == 0 || at < next) {
			next = at
		}
	}
	c.projAt, c.projServed, c.projLevel = now, c.served, c.level

	c.cancel.Cancel()
	c.cancel = des.Handle{}
	if next != 0 {
		c.cancel = c.e.Schedule(next, des.PrioEarly, c.recompute)
	}
	if c.observer != nil {
		c.observer(now, live)
	}
}

// fluidRun is what one engine records while a script runs: every flow's
// finish instant, the order the flows completed in, and every flow's rate
// after each reallocation, keyed by start index.
type fluidRun struct {
	finished []des.Time
	order    []int
	rates    []rateSample
}

type rateSample struct {
	at    des.Time
	rates map[uint64]float64 // start sequence → rate
}

// fluidStep is one step of a script: a flow start or a write fault
// factor, then the gap before the next step.
type fluidStep struct {
	fault float64 // >= 0: set the write fault factor instead of starting a flow
	bytes float64
	gap   des.Duration
}

// decodeScript turns fuzz input into a script: the first byte switches
// noise on or off, and each following 4-byte group is one step.
func decodeScript(data []byte) (noise bool, steps []fluidStep) {
	if len(data) == 0 {
		return false, nil
	}
	noise = data[0]%2 == 1
	data = data[1:]
	for i := 0; i+4 <= len(data) && len(steps) < 256; i += 4 {
		b := data[i : i+4]
		s := fluidStep{fault: -1}
		if b[0]%8 == 7 {
			s.fault = float64(b[1]%11) / 10
		} else {
			// Few distinct sizes, so virtual finishes tie.
			s.bytes = float64((int(b[1])<<8|int(b[2]))%64) * 311
		}
		switch b[3] % 4 {
		case 0:
			s.gap = 0 // same instant as the next step
		case 1:
			s.gap = des.Duration(b[2]) * des.Microsecond
		default:
			s.gap = des.Duration(b[1]%32) * 100 * des.Millisecond
		}
		steps = append(steps, s)
	}
	return noise, steps
}

const fuzzCapacity = 1000

var fuzzNoise = &NoiseConfig{Interval: des.Second, Amplitude: 0.5, DipProbability: 0.2, DipFloor: 0.1}

// runHeap drives the production channel through the public API.
func runHeap(noise bool, steps []fluidStep) fluidRun {
	e := des.NewEngine(7)
	cfg := Config{WriteCapacity: fuzzCapacity, ReadCapacity: fuzzCapacity}
	if noise {
		cfg.Noise = fuzzNoise
	}
	p := New(e, cfg)
	run := fluidRun{finished: make([]des.Time, len(steps))}
	p.SetObserver(func(now des.Time, class Class, flows []*Flow) {
		s := rateSample{at: now, rates: map[uint64]float64{}}
		for _, f := range flows {
			s.rates[f.seq] = f.Rate()
		}
		run.rates = append(run.rates, s)
	})
	e.Spawn("driver", func(proc *des.Proc) {
		for i, s := range steps {
			if s.fault >= 0 {
				p.SetFaultFactors(s.fault, 1)
			} else {
				i, f := i, p.StartFlow(Write, int64(s.bytes), Tag{})
				e.Spawn("waiter", func(proc *des.Proc) {
					f.Wait(proc)
					run.finished[i] = f.Finished()
					run.order = append(run.order, i)
				})
			}
			proc.Sleep(s.gap)
		}
		p.SetFaultFactors(1, 1)
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return run
}

// runRef drives the reference through the same script.
func runRef(noise bool, steps []fluidStep) fluidRun {
	e := des.NewEngine(7)
	var cfg *NoiseConfig
	if noise {
		cfg = fuzzNoise
	}
	c := newRefChannel(e, fuzzCapacity, cfg)
	run := fluidRun{finished: make([]des.Time, len(steps))}
	c.observer = func(now des.Time, flows []*refFlow) {
		s := rateSample{at: now, rates: map[uint64]float64{}}
		for _, f := range flows {
			s.rates[f.seq] = c.rate(f)
		}
		run.rates = append(run.rates, s)
	}
	e.Spawn("driver", func(proc *des.Proc) {
		for i, s := range steps {
			if s.fault >= 0 {
				c.setFaultFactor(s.fault)
			} else {
				i, f := i, c.start(s.bytes)
				e.Spawn("waiter", func(proc *des.Proc) {
					f.done.Wait(proc)
					run.finished[i] = f.done.At()
					run.order = append(run.order, i)
				})
			}
			proc.Sleep(s.gap)
		}
		c.setFaultFactor(1)
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return run
}

// FuzzChannelMatchesReference drives the heap channel and the O(n)
// reference with the same random flow sizes, start gaps, fault factors
// and noise, and requires bit-identical finish instants,
// completion order and rates. The seed corpus runs with the ordinary
// tests.
func FuzzChannelMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 1})
	f.Add([]byte{1, 0, 9, 9, 2, 6, 9, 9, 2, 0, 3, 40, 1, 7, 0, 0, 2, 0, 9, 9, 0, 7, 10, 0, 3})
	f.Add([]byte{0, 6, 1, 1, 0, 6, 1, 1, 4, 6, 2, 2, 8, 0, 1, 1, 1, 0, 7, 7, 2, 7, 0, 0, 1})
	f.Add([]byte{1, 3, 200, 17, 5, 3, 200, 17, 4, 6, 77, 31, 6, 7, 5, 0, 3, 1, 0, 0, 0, 2, 50, 50, 2,
		6, 12, 12, 12, 0, 30, 1, 2, 5, 30, 1, 6, 7, 10, 9, 3, 6, 255, 255, 6})
	// Noisy drain and restart: two flows, five idle 2.1 s fault steps,
	// then two more flows on a channel whose served counter was reset.
	f.Add([]byte{1, 0, 0, 5, 0, 0, 0, 7, 1, 7, 21, 0, 2, 7, 21, 0, 2, 7, 21, 0, 2, 7, 21, 0, 2,
		7, 21, 0, 2, 0, 0, 9, 0, 6, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		noise, steps := decodeScript(data)
		got, want := runHeap(noise, steps), runRef(noise, steps)
		for i := range steps {
			if got.finished[i] != want.finished[i] {
				t.Fatalf("step %d finished at %v, reference %v", i, got.finished[i], want.finished[i])
			}
		}
		if len(got.order) != len(want.order) {
			t.Fatalf("%d completions, reference %d", len(got.order), len(want.order))
		}
		for i := range got.order {
			if got.order[i] != want.order[i] {
				t.Fatalf("completion %d is step %d, reference step %d", i, got.order[i], want.order[i])
			}
		}
		if len(got.rates) != len(want.rates) {
			t.Fatalf("%d reallocations, reference %d", len(got.rates), len(want.rates))
		}
		for i, g := range got.rates {
			w := want.rates[i]
			if g.at != w.at || len(g.rates) != len(w.rates) {
				t.Fatalf("reallocation %d: %d flows at %v, reference %d at %v", i, len(g.rates), g.at, len(w.rates), w.at)
			}
			for seq, r := range g.rates {
				if wr, ok := w.rates[seq]; !ok || math.Float64bits(r) != math.Float64bits(wr) {
					t.Fatalf("reallocation %d at %v: flow %d rate %v, reference %v", i, g.at, seq, r, wr)
				}
			}
		}
	})
}
