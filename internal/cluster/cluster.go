// Package cluster is the ElastiSim-equivalent multi-job simulator behind
// the paper's motivating experiment (Figs. 1 and 2): several jobs share a
// cluster and its parallel file system; one job performs asynchronous I/O,
// and limiting that job to its required bandwidth — during contention only
// — returns the spared bandwidth to the synchronous jobs.
package cluster

import (
	"fmt"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/ftio"
	"iobehind/internal/metrics"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/tmio"
)

// LimitPolicy selects whether and when the asynchronous jobs are limited.
type LimitPolicy int

const (
	// NoLimit runs all jobs unrestricted (Fig. 1 top: fair bandwidth
	// distribution by node count only).
	NoLimit LimitPolicy = iota
	// LimitDuringContention caps each asynchronous job's ranks at their
	// measured required bandwidth (times a 1.1 tolerance) whenever
	// another job is doing I/O at the same time, and removes the cap
	// otherwise (Fig. 1 bottom).
	LimitDuringContention
	// LimitPredictive caps asynchronous jobs *ahead of* the other jobs'
	// I/O bursts: the monitor runs FTIO period detection over each
	// synchronous job's observed bandwidth, forecasts its next burst, and
	// pre-emptively installs the cap just before the burst arrives —
	// the paper's proposed coupling of the required-bandwidth metric with
	// an I/O scheduler. It also caps reactively, as LimitDuringContention
	// does, which covers jobs whose pattern is not yet detectable.
	LimitPredictive
	// LimitAlways keeps asynchronous jobs capped at their required
	// bandwidth for their whole lifetime. The paper argues against this
	// from a cluster perspective ("bandwidth limitation from such a
	// perspective can slow down the cluster's performance since contention
	// is more likely to happen as the affected application performs I/O
	// for a longer duration"); the policy exists so the argument can be
	// tested.
	LimitAlways
)

// JobSpec describes one batch job.
type JobSpec struct {
	// Nodes the job occupies. With one rank, and so one flow, per node,
	// the job's fair share of the PFS grows with its node count.
	Nodes int
	// Async marks the job as using asynchronous MPI-IO (the paper's job 4).
	Async bool
	// Arrival is when the job enters the queue.
	Arrival des.Time
	// Loops, BytesPerNode, Compute shape the HACC-IO-like phase pattern:
	// each loop computes, then writes BytesPerNode per node.
	Loops        int
	BytesPerNode int64
	Compute      des.Duration
}

func (j JobSpec) withDefaults() JobSpec {
	if j.Nodes <= 0 {
		j.Nodes = 16
	}
	if j.Loops <= 0 {
		j.Loops = 8
	}
	if j.BytesPerNode <= 0 {
		j.BytesPerNode = 4 << 30
	}
	if j.Compute <= 0 {
		j.Compute = 10 * des.Second
	}
	return j
}

const (
	// capTol scales the monitor's cap over a job's requirement, like the
	// strategies' tolerance.
	capTol = 1.1
	// seed drives all randomness of a scenario.
	seed = 1
)

// Config describes the cluster scenario.
type Config struct {
	// Nodes is the cluster size (paper: 500 × 96-core nodes).
	Nodes int
	// FS defaults to a 120 GB/s file system, Fig. 1's setting.
	FS *pfs.Config
	// Jobs to run.
	Jobs []JobSpec
	// Policy selects the limiting behaviour.
	Policy LimitPolicy
	// MonitorInterval is the contention monitor's polling period.
	// Defaults to 100 ms.
	MonitorInterval des.Duration
}

// JobResult reports one job's outcome.
type JobResult struct {
	Job     int
	Nodes   int
	Async   bool
	Arrival des.Time
	Started des.Time // when nodes were allocated
	Ended   des.Time
}

// Runtime is the job's execution time (excluding queue wait).
func (j JobResult) Runtime() des.Duration { return j.Ended.Sub(j.Started) }

// Result is the outcome of one cluster scenario.
type Result struct {
	Policy LimitPolicy
	Jobs   []JobResult
	// Bandwidth holds one write-bandwidth step series per job (Fig. 2),
	// plus the running-jobs count series (Fig. 1) and the file system's
	// total write utilization (fraction of capacity in use).
	Bandwidth   []*metrics.Series
	RunningJobs *metrics.Series
	Utilization *metrics.Series
	// LimitToggles counts how many times the monitor switched a cap on.
	LimitToggles int
	// Makespan is when the last job finished.
	Makespan des.Time
}

// Run executes the scenario and returns its result.
func Run(cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 500
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 100 * des.Millisecond
	}
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs")
	}

	e := des.NewEngine(seed)
	fsCfg := pfs.Config{WriteCapacity: 120e9, ReadCapacity: 120e9}
	if cfg.FS != nil {
		fsCfg = *cfg.FS
	}
	fs := pfs.New(e, fsCfg)

	res := &Result{
		Policy:      cfg.Policy,
		RunningJobs: &metrics.Series{Name: "running"},
		Utilization: &metrics.Series{Name: "utilization"},
	}
	sim := &simulation{
		e:       e,
		fs:      fs,
		cfg:     cfg,
		res:     res,
		free:    cfg.Nodes,
		rates:   make([]float64, len(cfg.Jobs)),
		running: make([]bool, len(cfg.Jobs)),
		active:  make([]int, len(cfg.Jobs)),
	}
	for i := range cfg.Jobs {
		res.Bandwidth = append(res.Bandwidth,
			&metrics.Series{Name: fmt.Sprintf("job%d", i)})
	}
	fs.SetObserver(sim.observe)

	for i, spec := range cfg.Jobs {
		spec = spec.withDefaults()
		// A job larger than the cluster would wait in the queue forever.
		if spec.Nodes > cfg.Nodes {
			return nil, fmt.Errorf("cluster: job %d needs %d nodes, the cluster has %d",
				i, spec.Nodes, cfg.Nodes)
		}
		sim.submit(i, spec)
	}
	if cfg.Policy != NoLimit {
		sim.tickFn = sim.tick
		e.Schedule(e.Now(), des.PrioNormal, sim.tickFn)
	}
	err := e.Run()
	if err == nil && sim.done != len(cfg.Jobs) {
		err = fmt.Errorf("cluster: %d jobs did not finish", len(cfg.Jobs)-sim.done)
	}
	if err != nil {
		e.Shutdown() // unwind the ranks a failed run left parked
		return nil, err
	}
	res.Makespan = sim.makespan
	return res, nil
}

// simulation carries the mutable scenario state.
type simulation struct {
	e        *des.Engine
	fs       *pfs.PFS
	cfg      Config
	res      *Result
	free     int
	queue    []int // job ids waiting for nodes, FIFO
	done     int
	makespan des.Time

	jobs    []*job
	rates   []float64 // last observed write rate per job
	running []bool
	active  []int // active flows per job (both channels)

	tickFn func() // tick, bound once so re-arming it allocates nothing
}

// job is one job's handle and the contention monitor's view of it.
type job struct {
	id     int
	spec   JobSpec
	sys    *mpiio.System
	tracer *tmio.Tracer
	world  *mpi.World

	required float64  // largest rank requirement TMIO measured; 0 = none yet
	capped   bool     // the monitor's cap is on
	forecast forecast // FTIO's burst forecast (synchronous jobs, LimitPredictive)
}

// requirement is the bandwidth the monitor caps the job at, before capTol:
// TMIO's measurement once there is one, and until then the job's average
// write rate, BytesPerNode per Compute.
func (j *job) requirement() float64 {
	if j.required > 0 {
		return j.required
	}
	return float64(j.spec.BytesPerNode) / j.spec.Compute.Seconds()
}

// submit schedules the job's arrival; it starts when enough nodes are free
// (FCFS with queueing).
func (s *simulation) submit(id int, spec JobSpec) {
	s.jobs = append(s.jobs, &job{id: id, spec: spec})
	s.res.Jobs = append(s.res.Jobs, JobResult{
		Job: id, Nodes: spec.Nodes, Async: spec.Async, Arrival: spec.Arrival,
	})
	s.e.Schedule(spec.Arrival, des.PrioNormal, func() {
		s.queue = append(s.queue, id)
		s.tryStart()
	})
}

// tryStart launches queued jobs in arrival order (FCFS) while nodes are
// available; a job at the head that does not fit blocks the jobs behind
// it.
func (s *simulation) tryStart() {
	for len(s.queue) > 0 {
		j := s.jobs[s.queue[0]]
		if j.spec.Nodes > s.free {
			return
		}
		s.queue = s.queue[1:]
		s.free -= j.spec.Nodes
		s.start(j)
	}
}

// start allocates the job's world and launches its ranks (one rank per
// node: the Fig. 1 jobs are modelled at node granularity).
func (s *simulation) start(j *job) {
	s.running[j.id] = true
	s.res.Jobs[j.id].Started = s.e.Now()
	s.updateRunningSeries()

	j.world = mpi.NewWorld(s.e, mpi.Config{Size: j.spec.Nodes, RanksPerNode: 1})
	j.sys = mpiio.NewSystem(j.world, s.fs, adio.Config{Tag: pfs.Tag{Job: j.id}})
	j.tracer = tmio.Attach(j.sys, tmio.StrategyConfig{}, tmio.Config{DisableOverhead: true})
	j.world.Launch(s.jobMain(j))
	j.world.AllDone().Then(func() { s.end(j) })
}

// end releases a finished job's nodes and starts the jobs queued behind
// it.
func (s *simulation) end(j *job) {
	now := s.e.Now()
	s.running[j.id] = false
	s.res.Jobs[j.id].Ended = now
	if now > s.makespan {
		s.makespan = now
	}
	s.done++
	s.free += j.spec.Nodes
	s.updateRunningSeries()
	s.tryStart()
}

// jobMain builds the per-rank main: a HACC-IO-like loop of compute and
// write phases. Synchronous jobs block on each write; the asynchronous job
// overlaps the write with the next compute phase.
func (s *simulation) jobMain(j *job) func(*mpi.Rank) {
	spec := j.spec
	return func(r *mpi.Rank) {
		f := j.sys.Open(r, fmt.Sprintf("job%d-%04d.bin", j.id, r.ID()))
		var req *mpiio.Request
		for loop := 0; loop < spec.Loops; loop++ {
			r.Barrier()
			d := spec.Compute + r.Jitter(des.Duration(float64(spec.Compute)*0.03))
			r.Compute(d)
			if spec.Async {
				if req != nil {
					req.Wait()
				}
				req = f.IwriteAt(int64(loop)*spec.BytesPerNode, spec.BytesPerNode)
			} else {
				f.WriteAt(int64(loop)*spec.BytesPerNode, spec.BytesPerNode)
			}
		}
		if req != nil {
			req.Wait()
		}
	}
}

// observe is the PFS observer: it maintains per-job write-rate series and
// activity counters for the contention monitor. A write-channel call sums
// the flows' rates into s.rates in flow order, so it allocates nothing.
func (s *simulation) observe(now des.Time, class pfs.Class, flows []*pfs.Flow) {
	write := class == pfs.Write
	for i := range s.active {
		s.active[i] = 0
	}
	if write {
		for i := range s.rates {
			s.rates[i] = 0
		}
	}
	for _, f := range flows {
		id := f.Tag().Job
		if id < 0 || id >= len(s.jobs) {
			continue
		}
		s.active[id]++
		if write {
			s.rates[id] += f.Rate()
		}
	}
	if !write {
		return
	}
	var total float64
	for id := range s.jobs {
		s.res.Bandwidth[id].Append(now, s.rates[id])
		total += s.rates[id]
	}
	s.res.Utilization.Append(now, total/s.fs.Capacity(pfs.Write))
}

func (s *simulation) updateRunningSeries() {
	count := 0.0
	for _, r := range s.running {
		if r {
			count++
		}
	}
	s.res.RunningJobs.Append(s.e.Now(), count)
}

// tick is one pass of the contention monitor, which runs every
// MonitorInterval under any policy but NoLimit until every job has
// finished. Under LimitPredictive it first refreshes the synchronous
// jobs' burst forecasts. Then it takes each running asynchronous job's
// requirement from TMIO and caps the job at requirement × capTol exactly
// when the policy is LimitAlways or another job contends (see
// contended); otherwise the job runs uncapped.
func (s *simulation) tick() {
	if s.done == len(s.jobs) {
		return
	}
	now := s.e.Now()
	if s.cfg.Policy == LimitPredictive {
		s.refreshForecasts(now)
	}
	for id, j := range s.jobs {
		if !j.spec.Async || !s.running[id] {
			continue
		}
		// The worst (largest) rank-level requirement: a job-level cap
		// must accommodate its hungriest rank.
		var worst float64
		for rank := 0; rank < j.spec.Nodes; rank++ {
			if b := j.tracer.RequiredBandwidth(rank); b > worst {
				worst = b
			}
		}
		if worst > 0 {
			j.required = worst
		}
		want := s.cfg.Policy == LimitAlways || s.contended(id, now)
		if want == j.capped {
			continue
		}
		j.capped = want
		limit := pfs.Unlimited
		if want {
			s.res.LimitToggles++
			limit = j.requirement() * capTol
		}
		for rank := 0; rank < j.spec.Nodes; rank++ {
			j.sys.Agent(rank).SetLimit(limit)
		}
	}
	s.e.After(s.cfg.MonitorInterval, s.tickFn)
}

// contended reports whether a running job other than id has flows in
// flight or, under LimitPredictive, is forecast to burst within four
// ticks: the cap is then in place before the burst arrives.
func (s *simulation) contended(id int, now des.Time) bool {
	lookahead := 4 * s.cfg.MonitorInterval
	for other, o := range s.jobs {
		if other == id || !s.running[other] {
			continue
		}
		if s.active[other] > 0 {
			return true
		}
		if s.cfg.Policy == LimitPredictive && o.forecast.windowContains(now, lookahead) {
			return true
		}
	}
	return false
}

// DefaultScenario returns the Fig. 1 setup: eight HACC-IO-like jobs on a
// 500-node cluster with a 120 GB/s file system; only job 4 is
// asynchronous. Arrivals are lightly staggered so contention windows vary.
//
// Job 4 is a large (96-node) but compute-heavy application: its required
// bandwidth (≈100 MB/s per node) is far below the burst share its node
// count entitles it to, which is exactly the situation where limiting an
// asynchronous application to its requirement frees real bandwidth for
// the synchronous jobs.
func DefaultScenario(policy LimitPolicy) Config {
	nodes := []int{16, 32, 96, 32, 96, 96, 32, 16}
	jobs := make([]JobSpec, len(nodes))
	for i, n := range nodes {
		jobs[i] = JobSpec{
			Nodes:        n,
			Async:        i == 4,
			Arrival:      des.Time(i) * des.Time(5*des.Second),
			Loops:        8,
			BytesPerNode: 4 << 30,
			Compute:      10 * des.Second,
		}
	}
	jobs[4].Loops = 6
	jobs[4].BytesPerNode = 3 << 29 // 1.5 GiB
	jobs[4].Compute = 15 * des.Second
	return Config{Nodes: 500, Jobs: jobs, Policy: policy}
}

// forecast describes a job's periodic burst pattern, as detected by FTIO
// (internal/ftio): bursts of burstLen recur every period; the last one
// started at lastBurst. The zero forecast predicts no burst.
type forecast struct {
	period    des.Duration
	burstLen  des.Duration
	lastBurst des.Time
}

// windowContains reports whether a burst is (or will be) in progress
// within [now, now+lookahead).
func (f forecast) windowContains(now des.Time, lookahead des.Duration) bool {
	if f.period <= 0 {
		return false
	}
	// Walk bursts from lastBurst forward until one ends after now.
	start := f.lastBurst
	for start.Add(f.burstLen) <= now {
		start = start.Add(f.period)
	}
	return start < now.Add(lookahead)
}

// refreshForecasts runs FTIO period detection over each running
// synchronous job's observed write bandwidth and updates the job's burst
// forecast when the pattern is confidently periodic.
func (s *simulation) refreshForecasts(now des.Time) {
	for id, j := range s.jobs {
		if j.spec.Async || !s.running[id] {
			continue
		}
		start := s.res.Jobs[id].Started
		span := now.Sub(start)
		if span < des.Duration(4*int64(j.spec.Compute)) {
			continue // not enough history yet
		}
		series := s.res.Bandwidth[id]
		res, err := ftio.Detect(series, start, now, 128)
		if err != nil || res.Confidence < 0.1 || res.Period <= 0 {
			continue
		}
		// Burst length from the duty cycle above half the peak.
		half := series.Max() / 2
		active := series.TimeAbove(half, start, now)
		cycles := span.Seconds() / res.Period.Seconds()
		burstLen := des.DurationOf(active.Seconds() / cycles)
		// The last burst: walk back from now to the most recent rise.
		last := now
		for last > start && series.At(last) <= half {
			last -= des.Time(res.Period / 16)
		}
		j.forecast = forecast{period: res.Period, burstLen: burstLen, lastBurst: last}
	}
}
