package cluster

import (
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/pfs"
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
	// Both async jobs were managed by the arbiter.
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
		// The compute-heavy async job the arbiter manages.
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
	// Queueing and the predictive arbiter together.
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
