package cluster

import (
	"math"
	"testing"
	"time"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/tmio"
)

// smallScenario shrinks the Fig. 1 setup so tests run in milliseconds
// while keeping the contention structure: three sync jobs plus one async
// job on a slow file system.
func smallScenario(policy LimitPolicy) Config {
	fs := pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
	jobs := []JobSpec{
		{Nodes: 4, Loops: 4, BytesPerNode: 1 << 30, Compute: 2 * des.Second},
		{Nodes: 8, Loops: 4, BytesPerNode: 1 << 30, Compute: 2 * des.Second,
			Arrival: des.Time(des.Second)},
		// The async job is I/O-light: required bandwidth (256 MB over 8 s
		// = 32 MB/s per node) is far below its contended burst share, so
		// capping it frees real bandwidth for the others.
		{Nodes: 4, Async: true, Loops: 4, BytesPerNode: 1 << 28,
			Compute: 8 * des.Second, Arrival: des.Time(2 * des.Second)},
		{Nodes: 4, Loops: 4, BytesPerNode: 1 << 30, Compute: 2 * des.Second,
			Arrival: des.Time(3 * des.Second)},
	}
	return Config{Nodes: 32, FS: &fs, Jobs: jobs, Policy: policy}
}

func TestScenarioRunsAllJobs(t *testing.T) {
	res, err := Run(smallScenario(NoLimit))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Ended <= j.Started {
			t.Fatalf("job %d never ran: %+v", j.Job, j)
		}
		if j.Started < j.Arrival {
			t.Fatalf("job %d started before arrival", j.Job)
		}
	}
	if res.Makespan == 0 {
		t.Fatal("no makespan")
	}
	if res.RunningJobs.Max() != 4 {
		t.Fatalf("running peak = %v, want 4 (all concurrent)", res.RunningJobs.Max())
	}
}

func TestLimitingSpeedsUpSyncJobs(t *testing.T) {
	base, err := Run(smallScenario(NoLimit))
	if err != nil {
		t.Fatal(err)
	}
	lim, err := Run(smallScenario(LimitDuringContention))
	if err != nil {
		t.Fatal(err)
	}
	if lim.LimitToggles == 0 {
		t.Fatal("monitor never limited the async job")
	}
	// The paper's headline (Fig. 1): sync jobs profit from the spared
	// bandwidth; the async job may pay a small price.
	improved := 0
	for i, j := range lim.Jobs {
		if j.Async {
			continue
		}
		if j.Runtime() < base.Jobs[i].Runtime() {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("no sync job improved under limiting: base=%v lim=%v",
			runtimes(base), runtimes(lim))
	}
	// The async job must not be catastrophically slower (the paper: "the
	// runtime of this job slightly increases").
	for i, j := range lim.Jobs {
		if !j.Async {
			continue
		}
		if j.Runtime() > base.Jobs[i].Runtime()*2 {
			t.Fatalf("async job doubled: %v -> %v", base.Jobs[i].Runtime(), j.Runtime())
		}
	}
}

func runtimes(r *Result) []des.Duration {
	out := make([]des.Duration, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.Runtime()
	}
	return out
}

func TestBandwidthSeriesRecorded(t *testing.T) {
	res, err := Run(smallScenario(NoLimit))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bandwidth) != 4 {
		t.Fatalf("series = %d", len(res.Bandwidth))
	}
	for i, s := range res.Bandwidth {
		if s.Max() <= 0 {
			t.Fatalf("job %d never showed bandwidth", i)
		}
		// Everything drained at the end.
		if got := s.At(res.Makespan + des.Time(des.Second)); got != 0 {
			t.Fatalf("job %d bandwidth nonzero after makespan: %v", i, got)
		}
	}
}

func TestQueueingWhenNodesScarce(t *testing.T) {
	cfg := smallScenario(NoLimit)
	cfg.Nodes = 8 // only one of the bigger jobs fits at a time
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 needs all 8 nodes: it cannot overlap anything.
	j1 := res.Jobs[1]
	for _, other := range res.Jobs {
		if other.Job == 1 {
			continue
		}
		if other.Started < j1.Ended && other.Ended > j1.Started {
			t.Fatalf("job %d overlapped the full-cluster job: %+v vs %+v",
				other.Job, other, j1)
		}
	}
	if res.RunningJobs.Max() > 2 {
		t.Fatalf("running peak = %v with 8 nodes", res.RunningJobs.Max())
	}
}

func TestDefaultScenarioShape(t *testing.T) {
	cfg := DefaultScenario(LimitDuringContention)
	if len(cfg.Jobs) != 8 || cfg.Nodes != 500 {
		t.Fatalf("unexpected default scenario: %+v", cfg)
	}
	async := 0
	for i, j := range cfg.Jobs {
		if j.Async {
			async++
			if i != 4 {
				t.Fatalf("async job at index %d, want 4", i)
			}
		}
	}
	if async != 1 {
		t.Fatalf("async jobs = %d, want 1", async)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config did not error")
	}
	// A job larger than the cluster can never start. Each run is bounded:
	// a monitor that re-arms for a job that never starts would otherwise
	// spin until the test binary's timeout.
	for _, policy := range []LimitPolicy{NoLimit, LimitDuringContention, LimitPredictive, LimitAlways} {
		for _, nodes := range []int{8, 0} { // 0 means 16 nodes
			cfg := Config{Nodes: 4, Jobs: []JobSpec{{Nodes: nodes, Loops: 1}}, Policy: policy}
			done := make(chan error, 1)
			go func() {
				_, err := Run(cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("policy %d: a %d-node job on 4 nodes did not error", policy, nodes)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("policy %d: a %d-node job on 4 nodes: Run did not return", policy, nodes)
			}
		}
	}
}

func TestFCFSHeadJobBlocksSmallerJob(t *testing.T) {
	fs := pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
	jobs := []JobSpec{
		{Nodes: 8, Loops: 2, BytesPerNode: 1 << 28, Compute: 2 * des.Second},
		// Arrives second and does not fit beside job 0: it blocks the
		// head of the queue.
		{Nodes: 8, Loops: 2, BytesPerNode: 1 << 28, Compute: 2 * des.Second,
			Arrival: des.Time(des.Second)},
		// Arrives third: 4 of the 12 nodes are free while job 0 runs, but
		// FCFS keeps it behind the blocked 8-node job 1.
		{Nodes: 4, Loops: 2, BytesPerNode: 1 << 28, Compute: 2 * des.Second,
			Arrival: des.Time(2 * des.Second)},
	}
	res, err := Run(Config{Nodes: 12, FS: &fs, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[2].Started < res.Jobs[1].Started {
		t.Fatalf("FCFS let job 2 leapfrog: %+v", res.Jobs)
	}
}

func TestLimitAlwaysKeepsAsyncJobCapped(t *testing.T) {
	base, err := Run(smallScenario(NoLimit))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(smallScenario(LimitAlways))
	if err != nil {
		t.Fatal(err)
	}
	if res.LimitToggles != 1 {
		t.Fatalf("toggles = %d, want exactly 1 (never released)", res.LimitToggles)
	}
	// The paced async job spends much longer moving each burst (duty
	// cycling spreads it across the compute phase), so the time its flows
	// are active on the file system grows substantially versus no limit.
	activeBase := base.Bandwidth[2].TimeAbove(1, 0, base.Makespan)
	activeLim := res.Bandwidth[2].TimeAbove(1, 0, res.Makespan)
	if activeLim < activeBase*12/10 {
		t.Fatalf("limited async job active %v vs unrestricted %v: no spreading",
			activeLim, activeBase)
	}
	// Sync jobs keep (or improve) their runtimes, as with contention-only.
	for i, j := range res.Jobs {
		if j.Async {
			continue
		}
		if j.Runtime() > base.Jobs[i].Runtime()*101/100 {
			t.Fatalf("sync job %d got slower under LimitAlways: %v vs %v",
				i, j.Runtime(), base.Jobs[i].Runtime())
		}
	}
}

func TestUtilizationSeries(t *testing.T) {
	res, err := Run(smallScenario(NoLimit))
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization
	if u.Max() <= 0 || u.Max() > 1.000001 {
		t.Fatalf("utilization peak = %v, want in (0, 1]", u.Max())
	}
	if got := u.At(res.Makespan + des.Time(des.Second)); got != 0 {
		t.Fatalf("utilization after makespan = %v", got)
	}
}

func TestMultipleAsyncJobs(t *testing.T) {
	fs := pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
	jobs := []JobSpec{
		{Nodes: 4, Loops: 3, BytesPerNode: 1 << 30, Compute: 2 * des.Second},
		{Nodes: 4, Async: true, Loops: 3, BytesPerNode: 1 << 27,
			Compute: 4 * des.Second, Arrival: des.Time(des.Second)},
		{Nodes: 4, Async: true, Loops: 3, BytesPerNode: 1 << 27,
			Compute: 4 * des.Second, Arrival: des.Time(2 * des.Second)},
	}
	res, err := Run(Config{Nodes: 16, FS: &fs, Jobs: jobs, Policy: LimitDuringContention})
	if err != nil {
		t.Fatal(err)
	}
	// Both async jobs were managed by the monitor.
	if res.LimitToggles < 2 {
		t.Fatalf("toggles = %d, want both async jobs capped", res.LimitToggles)
	}
	for _, j := range res.Jobs {
		if j.Ended <= j.Started {
			t.Fatalf("job %d incomplete", j.Job)
		}
	}
}

func TestPredictivePolicyCapsAroundBursts(t *testing.T) {
	fs := pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
	jobs := []JobSpec{
		// A strongly periodic synchronous job: 2 s compute, ~2 s burst.
		{Nodes: 4, Loops: 10, BytesPerNode: 1 << 29, Compute: 2 * des.Second},
		// The compute-heavy async job the monitor manages.
		{Nodes: 4, Async: true, Loops: 8, BytesPerNode: 1 << 27,
			Compute: 5 * des.Second},
	}
	res, err := Run(Config{
		Nodes: 16, FS: &fs, Jobs: jobs, Policy: LimitPredictive,
		MonitorInterval: 250 * des.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The predictive monitor must have toggled the cap repeatedly —
	// on before each predicted burst, off in the gaps.
	if res.LimitToggles < 3 {
		t.Fatalf("toggles = %d, want periodic capping", res.LimitToggles)
	}
	for _, j := range res.Jobs {
		if j.Ended <= j.Started {
			t.Fatalf("job %d incomplete", j.Job)
		}
	}
}

func TestQueueingWithPredictivePolicy(t *testing.T) {
	// Queueing and the predictive monitor together.
	fs := pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
	jobs := []JobSpec{
		{Nodes: 8, Loops: 8, BytesPerNode: 1 << 29, Compute: 3 * des.Second},
		// Needs the whole cluster: queues behind job 0, and the small
		// async job queues behind it.
		{Nodes: 12, Loops: 4, BytesPerNode: 1 << 29, Compute: 3 * des.Second,
			Arrival: des.Time(des.Second)},
		{Nodes: 4, Async: true, Loops: 6, BytesPerNode: 1 << 27,
			Compute: 4 * des.Second, Arrival: des.Time(2 * des.Second)},
	}
	res, err := Run(Config{
		Nodes: 12, FS: &fs, Jobs: jobs,
		Policy: LimitPredictive,
	})
	if err != nil {
		t.Fatal(err)
	}
	// FCFS: the async job starts only once the 12-node job has finished.
	if res.Jobs[2].Started < res.Jobs[1].Ended {
		t.Fatalf("async job started before the blocking 12-node job ended: %+v", res.Jobs)
	}
	for _, j := range res.Jobs {
		if j.Ended <= j.Started {
			t.Fatalf("job %d incomplete", j.Job)
		}
	}
}

func TestObserveSteadyStateAllocs(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	const jobs = 8
	s := &simulation{
		e: e, fs: fs,
		res:    &Result{Utilization: &metrics.Series{Name: "utilization"}},
		rates:  make([]float64, jobs),
		active: make([]int, jobs),
	}
	for id := 0; id < jobs; id++ {
		s.jobs = append(s.jobs, &job{id: id})
		s.res.Bandwidth = append(s.res.Bandwidth, &metrics.Series{})
	}
	var flows []*pfs.Flow
	for i := 0; i < 64; i++ {
		flows = append(flows, fs.StartFlow(pfs.Write, 1<<30, pfs.Tag{Job: i % jobs, Rank: i}))
	}
	for _, class := range []pfs.Class{pfs.Write, pfs.Read} {
		avg := testing.AllocsPerRun(100, func() { s.observe(e.Now(), class, flows) })
		if avg != 0 {
			t.Fatalf("observe(%v) = %v allocs/op, want 0", class, avg)
		}
	}
}

// contentionScenario is examples/contention's setup: four jobs on a
// 64-node cluster with a 12 GB/s file system; job 2 is asynchronous.
func contentionScenario(policy LimitPolicy) Config {
	fs := pfs.Config{WriteCapacity: 12e9, ReadCapacity: 12e9}
	return Config{Nodes: 64, FS: &fs, Policy: policy, Jobs: []JobSpec{
		{Nodes: 8, Loops: 6, BytesPerNode: 2 << 30, Compute: 4 * des.Second},
		{Nodes: 16, Loops: 6, BytesPerNode: 2 << 30, Compute: 4 * des.Second,
			Arrival: des.Time(2 * des.Second)},
		{Nodes: 24, Async: true, Loops: 5, BytesPerNode: 1 << 29,
			Compute: 6 * des.Second, Arrival: des.Time(3 * des.Second)},
		{Nodes: 8, Loops: 6, BytesPerNode: 2 << 30, Compute: 4 * des.Second,
			Arrival: des.Time(5 * des.Second)},
	}}
}

// predictiveScenario is examples/predictive's setup: a strongly periodic
// synchronous job beside a compute-heavy asynchronous one, on 16 nodes
// and a 1 GB/s file system, polled every 250 ms.
func predictiveScenario(policy LimitPolicy) Config {
	fs := pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9}
	return Config{Nodes: 16, FS: &fs, Policy: policy,
		MonitorInterval: 250 * des.Millisecond, Jobs: []JobSpec{
			{Nodes: 4, Loops: 12, BytesPerNode: 1 << 29, Compute: 6 * des.Second},
			{Nodes: 4, Async: true, Loops: 16, BytesPerNode: 1 << 27,
				Compute: 5 * des.Second},
		}}
}

// TestOutcomesPinned pins every policy's exact outcome on two small
// scenarios: the makespan, each job's start and end, and the number of
// cap-ons. Fig. 1's golden render covers only NoLimit and
// LimitDuringContention on the default scenario; this table also pins
// LimitPredictive and LimitAlways, so a change to the monitor's decision
// rule, its tick order or its requirement input shows up here.
func TestOutcomesPinned(t *testing.T) {
	type span struct{ started, ended des.Time }
	cases := []struct {
		name     string
		cfg      Config
		makespan des.Time
		jobs     []span
		toggles  int
	}{
		{"contention/NoLimit", contentionScenario(NoLimit), 49206952607,
			[]span{{0, 43594614851}, {2000000000, 47883753342}, {3000000000, 35590101590}, {5000000000, 49206952607}}, 0},
		{"contention/LimitDuringContention", contentionScenario(LimitDuringContention), 46417713428,
			[]span{{0, 40981537350}, {2000000000, 44913963997}, {3000000000, 35536469014}, {5000000000, 46417713428}}, 10},
		{"contention/LimitPredictive", contentionScenario(LimitPredictive), 47068937680,
			[]span{{0, 41632745230}, {2000000000, 45159642705}, {3000000000, 39316029898}, {5000000000, 47068937680}}, 6},
		{"contention/LimitAlways", contentionScenario(LimitAlways), 48017568301,
			[]span{{0, 42119454932}, {2000000000, 46840505198}, {3000000000, 39314403722}, {5000000000, 48017568301}}, 1},
		{"predictive/NoLimit", predictiveScenario(NoLimit), 100884710358,
			[]span{{0, 100884710358}, {0, 82883059463}}, 0},
		{"predictive/LimitDuringContention", predictiveScenario(LimitDuringContention), 99283459517,
			[]span{{0, 99283459517}, {0, 83432490993}}, 10},
		{"predictive/LimitPredictive", predictiveScenario(LimitPredictive), 99283459517,
			[]span{{0, 99283459517}, {0, 85468082503}}, 10},
		{"predictive/LimitAlways", predictiveScenario(LimitAlways), 100699102583,
			[]span{{0, 100699102583}, {0, 86452593216}}, 1},
	}
	for _, c := range cases {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Makespan != c.makespan || res.LimitToggles != c.toggles {
			t.Errorf("%s: makespan %d, toggles %d; want %d, %d",
				c.name, res.Makespan, res.LimitToggles, c.makespan, c.toggles)
		}
		for i, j := range res.Jobs {
			if got := (span{j.Started, j.Ended}); got != c.jobs[i] {
				t.Errorf("%s: job %d ran %d..%d, want %d..%d",
					c.name, i, got.started, got.ended, c.jobs[i].started, c.jobs[i].ended)
			}
		}
	}
}

// monitorSim builds a simulation whose jobs all count as running but are
// never launched, so a test can set their activity, requirement and
// forecast by hand and call the monitor's tick directly.
func monitorSim(cfg Config) *simulation {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
	n := len(cfg.Jobs)
	s := &simulation{
		e: e, fs: fs, cfg: cfg,
		res:     &Result{Jobs: make([]JobResult, n)},
		running: make([]bool, n),
		active:  make([]int, n),
	}
	s.tickFn = s.tick
	for id, spec := range cfg.Jobs {
		j := &job{id: id, spec: spec.withDefaults()}
		j.world = mpi.NewWorld(e, mpi.Config{Size: j.spec.Nodes, RanksPerNode: 1})
		j.sys = mpiio.NewSystem(j.world, fs, adio.Config{Tag: pfs.Tag{Job: id}})
		j.tracer = tmio.Attach(j.sys, tmio.StrategyConfig{}, tmio.Config{DisableOverhead: true})
		s.jobs = append(s.jobs, j)
		s.res.Bandwidth = append(s.res.Bandwidth, &metrics.Series{})
		s.running[id] = true
	}
	return s
}

// limits returns every rank's write limit of job id.
func (s *simulation) limits(id int) []float64 {
	j := s.jobs[id]
	out := make([]float64, j.spec.Nodes)
	for rank := range out {
		out[rank] = j.sys.Agent(rank).Limit()
	}
	return out
}

func TestCapDuringContentionToggles(t *testing.T) {
	s := monitorSim(Config{Policy: LimitDuringContention, Jobs: []JobSpec{
		// Async: falls back to 100 MB/s per node before any measurement.
		{Nodes: 2, Async: true, BytesPerNode: 100e6, Compute: des.Second},
		{Nodes: 1},
	}})
	// The monitor multiplies at run time, so the expected caps must too:
	// the constant expression 100e6 * capTol rounds differently.
	fallback, measured := 100e6, 200e6
	limitIs := func(want float64) {
		t.Helper()
		for rank, got := range s.limits(0) {
			if got != want {
				t.Fatalf("rank %d limit = %v, want %v", rank, got, want)
			}
		}
	}
	// No one else active: uncapped.
	s.tick()
	limitIs(pfs.Unlimited)
	// The sync job has flows in flight: cap at fallback × capTol.
	s.active[1] = 1
	s.tick()
	limitIs(fallback * capTol)
	// A measurement arrives; the cap follows it on the next cap-on.
	s.jobs[0].required = measured
	s.active[1] = 0
	s.tick()
	limitIs(pfs.Unlimited)
	s.active[1] = 1
	s.tick()
	limitIs(measured * capTol)
	// A job that is not running does not contend, whatever its flows.
	s.running[1] = false
	s.tick()
	limitIs(pfs.Unlimited)
	if s.res.LimitToggles != 2 {
		t.Fatalf("toggles = %d, want 2", s.res.LimitToggles)
	}
}

func TestCapAlways(t *testing.T) {
	s := monitorSim(Config{Policy: LimitAlways, Jobs: []JobSpec{
		{Nodes: 1, Async: true, BytesPerNode: 100e6, Compute: des.Second},
	}})
	s.tick()
	if got := s.limits(0)[0]; math.Abs(got-110e6) > 1e-3 {
		t.Fatalf("limit = %v, want 110e6", got)
	}
	// Idempotent: no further cap-on without a change.
	s.tick()
	if s.res.LimitToggles != 1 {
		t.Fatalf("toggles = %d, want 1", s.res.LimitToggles)
	}
}

func TestPredictiveCapping(t *testing.T) {
	cfg := Config{Policy: LimitPredictive,
		MonitorInterval: 750 * des.Millisecond, // four ticks look 3 s ahead
		Jobs:            []JobSpec{{Nodes: 1, Async: true}, {Nodes: 1}}}
	s := monitorSim(cfg)
	sec := func(x float64) des.Time { return des.Time(des.DurationOf(x)) }

	// Job 1 bursts for 2 s every 10 s, last burst at t=0.
	s.jobs[1].forecast = forecast{
		period:    des.Duration(10 * des.Second),
		burstLen:  des.Duration(2 * des.Second),
		lastBurst: 0,
	}
	cases := []struct {
		now  float64
		want bool
	}{
		{5, false}, // next burst at t=10 lies beyond the 3 s lookahead
		{8, true},  // it lies within: cap ahead of the burst
		{11, true}, // burst in progress (10..12)
		{13, false},
	}
	for _, c := range cases {
		if got := s.contended(0, sec(c.now)); got != c.want {
			t.Errorf("contended at t=%vs = %v, want %v", c.now, got, c.want)
		}
	}
	// Reactive fallback: no burst forecast near, but job 1 has flows.
	s.active[1] = 1
	if !s.contended(0, sec(14)) {
		t.Fatal("reactive fallback missing")
	}
	// Only LimitPredictive reads the forecast.
	s.active[1] = 0
	s.cfg.Policy = LimitDuringContention
	if s.contended(0, sec(8)) {
		t.Fatal("LimitDuringContention capped on a forecast")
	}
}

func TestForecastWindow(t *testing.T) {
	sec := func(x float64) des.Time { return des.Time(des.DurationOf(x)) }
	f := forecast{
		period:    des.Duration(10 * des.Second),
		burstLen:  des.Duration(2 * des.Second),
		lastBurst: sec(100),
	}
	cases := []struct {
		now       float64
		lookahead float64
		want      bool
	}{
		{101, 1, true},  // mid-burst
		{103, 1, false}, // between bursts
		{108, 3, true},  // next burst (110) inside lookahead
		{108, 1, false}, // not yet
		{95, 20, true},  // before lastBurst: the recorded burst is ahead
	}
	for _, c := range cases {
		got := f.windowContains(sec(c.now), des.DurationOf(c.lookahead))
		if got != c.want {
			t.Errorf("windowContains(now=%v, look=%v) = %v, want %v",
				c.now, c.lookahead, got, c.want)
		}
	}
	if (forecast{}).windowContains(0, des.Second) {
		t.Fatal("zero forecast matched")
	}
}
