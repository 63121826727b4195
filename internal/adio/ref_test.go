package adio

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

// refAgent is the reference the event-driven Agent is checked against:
// the I/O thread as a simulation process that blocks at each wait of the
// Sec. V loop. Its queue is a plain slice; an idle thread parks on a
// completion that the next Submit (or Close) fires. It shares the agent's
// configuration, limits, fault model, burst buffer, counters and helpers
// (StormLatency, maybeHiccup, retryBackoff), but none of its step
// bookkeeping.
type refAgent struct {
	*Agent
	pending []*Request
	wake    *des.Completion // fired to wake a thread parked on an empty queue
}

func newRefAgent(e *des.Engine, fs *pfs.PFS, host Host, cfg Config) *refAgent {
	a := &refAgent{Agent: newAgent(e, fs, host, cfg)}
	e.Spawn(fmt.Sprintf("ref-agent-j%dr%d", cfg.Tag.Job, cfg.Tag.Rank), a.serve)
	return a
}

func (a *refAgent) Submit(class pfs.Class, bytes int64, async bool) *Request {
	if a.closed {
		panic("adio: submit on closed agent")
	}
	req := &Request{done: des.NewCompletion(a.e)}
	req.Stats.Class = class
	req.Stats.Async = async
	req.Stats.Bytes = bytes
	req.Stats.Submitted = a.e.Now()
	a.pending = append(a.pending, req)
	a.kick()
	return req
}

func (a *refAgent) Close() {
	if a.closed {
		return
	}
	a.closed = true
	a.kick()
	if a.bb != nil {
		a.bb.Close()
	}
}

// kick wakes the thread if it is parked on an empty queue.
func (a *refAgent) kick() {
	if a.wake != nil && !a.wake.Done() {
		a.wake.Complete()
	}
}

// serve is the thread's main loop: pop a request, execute it throttled,
// complete its generalized request; exit once closed and drained.
func (a *refAgent) serve(p *des.Proc) {
	for {
		for len(a.pending) == 0 {
			if a.closed {
				return
			}
			a.wake = des.NewCompletion(a.e)
			a.wake.Wait(p)
		}
		req := a.pending[0]
		a.pending = a.pending[1:]
		a.execute(p, req)
		req.done.Complete()
		a.requestsDone++
	}
}

// execute runs one request under the current limit, blocking p at each
// wait of the sub-request loop.
func (a *refAgent) execute(p *des.Proc, req *Request) {
	req.Stats.Start = p.Now()
	req.Stats.Limit = a.limit[req.Stats.Class]
	if !req.Stats.Async {
		req.Stats.Limit = pfs.Unlimited
	}

	var queued des.Duration
	if lat := StormLatency(a.e, a.cfg.QueueLatencyPerFlow,
		a.fs.RecentOps(req.Stats.Class)); lat > 0 {
		if a.faults != nil {
			if f := a.faults.QueueFactor(req.Stats.Class); f > 1 {
				lat = des.DurationOf(lat.Seconds() * f)
			}
		}
		p.Sleep(lat)
		queued = lat
	}
	req.Stats.Queued = queued

	if a.bb != nil && req.Stats.Class == pfs.Write {
		req.Stats.Limit = pfs.Unlimited
		start := p.Now()
		// The buffer absorbs as engine events, so the thread parks on a
		// completion the write's continuation fires. That wake comes one
		// same-instant slot after the continuation, behind only the
		// drainer's wake, which moves no bytes this request can see.
		absorbed := des.NewCompletion(a.e)
		a.bb.Write(req.Stats.Bytes, absorbed.Complete)
		absorbed.Wait(p)
		end := p.Now()
		req.Stats.Segments = append(req.Stats.Segments, Segment{Start: start.Add(-queued), End: end})
		a.totalBytes[pfs.Write] += req.Stats.Bytes
		req.Stats.End = end
		a.maybeHiccup(req)
		return
	}

	remaining := req.Stats.Bytes
	deficit := 0.0
	if a.cfg.CarryDeficit {
		deficit = a.carriedDeficit
	}
	failures := 0
	for remaining > 0 {
		limit := a.limit[req.Stats.Class]
		limited := req.Stats.Async && !math.IsInf(limit, 1)
		chunk := remaining
		if limited && chunk > a.cfg.SubRequestSize {
			chunk = a.cfg.SubRequestSize
		}
		required := 0.0
		if limited {
			required = float64(chunk) / limit
		}
		start, end := a.fs.Transfer(p, req.Stats.Class, chunk, a.cfg.Tag)
		if a.faults != nil {
			if slow := a.faults.NodeSlowdown(a.cfg.Tag.Node); slow > 1 {
				p.Sleep(des.DurationOf(end.Sub(start).Seconds() * (slow - 1)))
				end = p.Now()
			}
		}
		segStart := start.Add(-queued)
		queued = 0
		req.Stats.Segments = append(req.Stats.Segments, Segment{Start: segStart, End: end})
		actual := end.Sub(segStart).Seconds()

		if a.faults != nil {
			if prob := a.faults.ErrorProb(req.Stats.Class); prob > 0 &&
				a.e.Rand().Float64() < prob {
				if limited {
					deficit += actual
				}
				failures++
				if failures > retryMax {
					a.retryExhausted++
					req.Stats.Failed = true
					break
				}
				req.Stats.Retries++
				a.retries++
				d := retryBackoff(failures)
				p.Sleep(d)
				req.Stats.BackoffSlept += d
				continue
			}
		}
		failures = 0
		remaining -= chunk

		if !limited {
			continue
		}
		if actual < required {
			sleep := required - actual
			if deficit > 0 {
				use := math.Min(deficit, sleep)
				deficit -= use
				sleep -= use
			}
			if sleep > 0 {
				d := des.DurationOf(sleep)
				p.Sleep(d)
				req.Stats.SleptFor += d
			}
		} else {
			deficit += actual - required
		}
	}
	if a.cfg.CarryDeficit {
		a.carriedDeficit = deficit
	}
	a.totalBytes[req.Stats.Class] += req.Stats.Bytes - remaining
	req.Stats.End = p.Now()
	a.maybeHiccup(req)
}

// windowFaults is a fault model that is active during even virtual
// seconds only, so windows open and close under in-flight requests.
type windowFaults struct {
	e        *des.Engine
	queue    float64
	slowdown float64 // applies to node 0
	errProb  float64
}

func (f *windowFaults) active() bool { return int64(f.e.Now().Seconds())%2 == 0 }

func (f *windowFaults) QueueFactor(pfs.Class) float64 {
	if f.active() {
		return f.queue
	}
	return 1
}

func (f *windowFaults) NodeSlowdown(node int) float64 {
	if node == 0 && f.active() {
		return f.slowdown
	}
	return 1
}

func (f *windowFaults) ErrorProb(pfs.Class) float64 {
	if f.active() {
		return f.errProb
	}
	return 0
}

// agentScript is a decoded fuzz input: a configuration shared by two
// agents on one file system, and the steps an application process takes.
type agentScript struct {
	seed   int64
	cfg    Config
	faults *windowFaults // nil: healthy; e is set per run
	steps  []agentStep
}

type agentStep struct {
	kind  int // 0 submit, 1 sleep, 2 set a class limit, 3 wait for a request
	agent int
	class pfs.Class
	async bool
	bytes int64
	gap   des.Duration
	limit float64
	req   int
}

// decodeAgentScript turns fuzz bytes into a script: a four-byte header
// (flags, sub-request size, fault strength, straggler slowdown), then
// four bytes a step.
func decodeAgentScript(data []byte) agentScript {
	var hdr [4]byte
	copy(hdr[:], data)
	flags := hdr[0]
	sc := agentScript{seed: int64(hdr[1]%5) + 1}
	sc.cfg.SubRequestSize = int64(hdr[1]%8+1) << 20
	sc.cfg.CarryDeficit = flags&1 != 0
	if flags&2 != 0 {
		sc.cfg.QueueLatencyPerFlow = 2 * des.Millisecond
	}
	if flags&4 != 0 {
		sc.faults = &windowFaults{
			queue:    1 + float64(hdr[2]%4),
			slowdown: 1 + float64(hdr[3]%4)/2,
			errProb:  float64(hdr[2]) / 255 * 0.9,
		}
	}
	if flags&8 != 0 {
		sc.cfg.BurstBuffer = &pfs.BurstBufferConfig{
			Capacity: 12 << 20, WriteRate: 400e6, DrainRate: 30e6, DrainChunk: 3 << 20,
		}
	}
	if flags&16 != 0 {
		sc.cfg.HiccupProb = 0.5
	}
	submitted := 0
	for i := 4; i+3 < len(data); i += 4 {
		b := data[i : i+4]
		st := agentStep{agent: int(b[0]>>7) & 1, class: pfs.Class(b[1] & 1)}
		switch b[0] % 8 {
		case 0, 1, 2, 3:
			st.kind = 0
			st.async = b[1]&2 != 0
			if b[1]&4 != 0 {
				st.bytes = int64(b[2]%4) * sc.cfg.SubRequestSize // 0 and exact multiples
			} else {
				st.bytes = (int64(b[2])<<8 | int64(b[3])) * 613
			}
			submitted++
		case 4, 5:
			st.kind = 1
			st.gap = des.Duration(b[2]%8) * 50 * des.Millisecond // 0: same instant
		case 6:
			st.kind = 2
			st.limit = pfs.Unlimited
			if b[2] != 0 {
				st.limit = float64(b[2]) * 2e5
			}
		default:
			if submitted == 0 {
				continue
			}
			st.kind = 3
			st.req = int(b[2]) % submitted
		}
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// agentAPI is what the application drives on both implementations.
type agentAPI interface {
	Submit(class pfs.Class, bytes int64, async bool) *Request
	SetClassLimit(class pfs.Class, limit float64)
	Close()
}

// agentRun is everything a run exposes that the two implementations
// must agree on.
type agentRun struct {
	stats     []RequestStats
	completed []des.Time
	counters  [2][6]int64 // per agent: bytes W/R, done, hiccups, retries, exhausted
	penalty   [2]float64
	stalled   int
	end       des.Time
	nextRand  int64
}

// runAgentScript plays the script against two agents, event-driven or
// reference, on a fresh engine.
func runAgentScript(sc agentScript, ref bool) agentRun {
	e := des.NewEngine(sc.seed)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 80e6})
	var agents [2]agentAPI
	var state [2]*Agent
	var hosts [2]*fakeHost
	for i := range agents {
		cfg := sc.cfg
		cfg.Tag = pfs.Tag{Rank: i, Node: i}
		hosts[i] = &fakeHost{}
		if ref {
			r := newRefAgent(e, fs, hosts[i], cfg)
			agents[i], state[i] = r, r.Agent
		} else {
			a := NewAgent(e, fs, hosts[i], cfg)
			agents[i], state[i] = a, a
		}
		if sc.faults != nil {
			f := *sc.faults
			f.e = e
			state[i].SetFaults(&f)
		}
	}
	var reqs []*Request
	e.Spawn("app", func(p *des.Proc) {
		for _, st := range sc.steps {
			a := agents[st.agent]
			switch st.kind {
			case 0:
				fs.NoteOp(st.class)
				reqs = append(reqs, a.Submit(st.class, st.bytes, st.async))
			case 1:
				p.Sleep(st.gap)
			case 2:
				a.SetClassLimit(st.class, st.limit)
			case 3:
				reqs[st.req].Wait(p)
			}
		}
		for _, r := range reqs {
			r.Wait(p)
		}
		for _, a := range agents {
			a.Close()
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	run := agentRun{stalled: len(e.Stalled()), end: e.Now(), nextRand: e.Rand().Int63()}
	for _, r := range reqs {
		run.stats = append(run.stats, r.Stats)
		run.completed = append(run.completed, r.CompletedAt())
	}
	for i, a := range state {
		run.counters[i] = [6]int64{a.TotalBytes(pfs.Write), a.TotalBytes(pfs.Read),
			int64(a.RequestsDone()), int64(a.Hiccups()), int64(a.Retries()),
			int64(a.RetryExhausted())}
		run.penalty[i] = hosts[i].penalty
	}
	return run
}

// FuzzAgentMatchesProcessReference runs the event-driven agent and the
// process-based reference on twin engines over the same random request
// stream — sizes including zero and non-multiples of the sub-request
// size, async and sync requests, limit changes between submits, deficit
// carry, storm queuing, a fault window with stragglers and transient
// errors up to retry exhaustion, and a burst buffer — and requires
// identical request stats, completion instants, totals, host penalties
// and PRNG state. The seed corpus runs with the ordinary tests.
func FuzzAgentMatchesProcessReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 100, 6, 0, 10, 0, 0, 2, 80, 0, 7, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 6, 0, 5, 0, 0, 2, 200, 1, 4, 0, 3, 0, 0, 6, 0, 0, 128, 6, 5, 0, 7, 0, 1, 0})
	f.Add([]byte{7, 2, 180, 3, 6, 1, 3, 0, 0, 3, 150, 7, 0, 2, 90, 90, 4, 0, 1, 0, 130, 3, 60, 0, 6, 0, 0, 0})
	f.Add([]byte{24, 1, 0, 0, 0, 2, 120, 0, 1, 0, 2, 9, 0, 6, 2, 0, 128, 2, 40, 0, 5, 0, 2, 0, 2, 2, 200, 200, 7, 0, 1, 0})
	f.Add([]byte{31, 4, 255, 1, 6, 0, 20, 0, 6, 1, 20, 0, 0, 2, 255, 255, 128, 3, 100, 3, 0, 1, 30, 30, 0, 6, 1, 0,
		4, 0, 7, 0, 0, 2, 0, 0, 7, 0, 2, 0, 0, 4, 0, 0})
	// Two agents sharing the channel just below their limit (Case B),
	// then one alone with the carried overrun (Case A with a deficit).
	f.Add([]byte{1, 0, 0, 0, 6, 0, 255, 0, 134, 0, 255, 0, 0, 2, 40, 0, 128, 2, 40, 0, 0, 2, 10, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeAgentScript(data)
		got, want := runAgentScript(sc, false), runAgentScript(sc, true)
		if len(got.stats) != len(want.stats) {
			t.Fatalf("%d requests, reference %d", len(got.stats), len(want.stats))
		}
		for i := range got.stats {
			if !reflect.DeepEqual(got.stats[i], want.stats[i]) {
				t.Fatalf("request %d stats\n%+v\nreference\n%+v", i, got.stats[i], want.stats[i])
			}
			if got.completed[i] != want.completed[i] {
				t.Fatalf("request %d completed at %v, reference %v", i, got.completed[i], want.completed[i])
			}
		}
		if got.counters != want.counters {
			t.Fatalf("counters %v, reference %v", got.counters, want.counters)
		}
		for i := range got.penalty {
			if math.Float64bits(got.penalty[i]) != math.Float64bits(want.penalty[i]) {
				t.Fatalf("agent %d host penalty %v, reference %v", i, got.penalty[i], want.penalty[i])
			}
		}
		if got.stalled != 0 || want.stalled != 0 {
			t.Fatalf("%d processes stalled, reference %d", got.stalled, want.stalled)
		}
		if got.end != want.end || got.nextRand != want.nextRand {
			t.Fatalf("run ended at %v with next rand %d, reference %v with %d",
				got.end, got.nextRand, want.end, want.nextRand)
		}
	})
}
