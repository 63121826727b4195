package fabric

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/runner"
)

// TestDistributedMatchesSerial is the fabric's headline invariant: the
// whole quick plan that `iosweep -figs all` runs (13 figures, every
// point result type), swept through a coordinator and two real workers —
// one of which is killed mid-sweep so its leases re-dispatch — yields
// entry bytes and renders identical to the serial run. It then checks
// the one result store: the coordinator wrote each computed point to its
// cache exactly once, a local run over that cache recomputes nothing,
// and a restarted coordinator over the same directory serves a
// resubmission entirely from the cache with no worker attached.
func TestDistributedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed integration test")
	}
	plan, err := experiments.BuildPlan(nil, experiments.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := ManifestFor(plan.Points)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: the serial, cache-less runner.
	serialResults, err := runner.Serial().Run(context.Background(), plan.Points)
	if err != nil {
		t.Fatal(err)
	}
	serialRenders := renders(t, plan, serialResults)
	// matchesSerial requires a submission's entry bytes and renders to
	// equal the serial run's.
	matchesSerial := func(what string, sub *SubmitResult) {
		t.Helper()
		for i, res := range serialResults {
			if res.Err != nil {
				t.Fatalf("serial point %s failed: %v", res.Key, res.Err)
			}
			want, err := runner.EncodeEntry(res.Value)
			if err != nil {
				t.Fatal(err)
			}
			if string(sub.Bytes[i]) != string(want) {
				t.Fatalf("%s: point %s: entry bytes differ from serial", what, res.Key)
			}
		}
		results, err := DecodeResults(plan.Points, sub)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range renders(t, plan, results) {
			if got != serialRenders[i] {
				t.Fatalf("%s: figure %s renders differently from serial:\n--- got ---\n%s\n--- serial ---\n%s",
					what, plan.Entries[i].ID, got, serialRenders[i])
			}
		}
	}

	// Fabric: coordinator with its cache, probed directly by the
	// cache-sharing checks below.
	cacheDir := t.TempDir()
	sharedCache, err := runner.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	workerCtx1, killWorker1 := context.WithCancel(context.Background())
	defer killWorker1()
	var killOnce sync.Once
	co, err := NewCoordinator(Options{
		Cache:        sharedCache,
		LeaseTimeout: 5 * time.Second,
		Logf:         t.Logf,
		// Kill worker 1 as soon as any result lands: whatever it holds
		// at that moment must be re-dispatched and the sweep must still
		// finish correctly on worker 2 alone.
		OnAccept: func(worker string, index int, pointKey string) {
			killOnce.Do(func() {
				t.Logf("killing worker w1 after first acceptance (%s by %s)", pointKey, worker)
				killWorker1()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co.Start(ln)
	defer co.Close()

	workerCtx2, stopWorker2 := context.WithCancel(context.Background())
	defer stopWorker2()
	var wg sync.WaitGroup
	for _, w := range []struct {
		ctx context.Context
		id  string
	}{{workerCtx1, "w1"}, {workerCtx2, "w2"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(w.ctx, WorkerOptions{
				Coordinator: co.Addr(), ID: w.id, Executors: 2, Logf: t.Logf,
			})
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sub, err := Submit(ctx, co.Addr(), "integration-test", manifest, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	stopWorker2()
	wg.Wait()

	matchesSerial("distributed", sub)
	if sub.Stats.Computed != len(plan.Points) || sub.Stats.CacheHits != 0 || sub.Stats.Errors != 0 {
		t.Fatalf("stats %+v, want all %d points computed", sub.Stats, len(plan.Points))
	}
	// Duplicate completions (from lease re-dispatch) must agree byte for
	// byte with the first.
	if m := co.Snapshot().Totals.Mismatches; m != 0 {
		t.Fatalf("%d duplicate completions differed from the accepted bytes", m)
	}
	// The coordinator wrote each point it accepted once: duplicates and
	// the workers write nothing.
	if w := sharedCache.Stats().Writes; w != sub.Stats.Computed {
		t.Fatalf("cache written %d times for %d computed points", w, sub.Stats.Computed)
	}

	// Cache sharing, part 1: probing the coordinator's cache hits every
	// point.
	before := sharedCache.Stats()
	for _, mp := range manifest {
		if _, ok := sharedCache.GetBytes(mp.CacheKey); !ok {
			t.Fatalf("point %s not in the shared cache after the sweep", mp.Key)
		}
	}
	after := sharedCache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != len(manifest) || misses != 0 {
		t.Fatalf("probe: %d hits, %d misses, want %d hits", hits, misses, len(manifest))
	}

	// Cache sharing, part 2: a local run over the coordinator's cache
	// (iosweep -cache pointed at its directory) recomputes nothing.
	localRun := runner.New(runner.Options{Workers: 2, Cache: sharedCache})
	// Re-enumerate so no state leaks from the earlier plan.
	plan2, err := experiments.BuildPlan(nil, experiments.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	localResults, err := localRun.Run(context.Background(), plan2.Points)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.CachedCount(localResults); got != len(plan2.Points) {
		t.Fatalf("local run over the shared cache computed %d points, want 0 (all %d cached)",
			len(plan2.Points)-got, len(plan2.Points))
	}
	for i, got := range renders(t, plan2, localResults) {
		if got != serialRenders[i] {
			t.Fatalf("cache-served local run renders figure %s differently from serial", plan2.Entries[i].ID)
		}
	}

	// Resume: a new coordinator over the same directory, with no worker
	// attached, serves every point from the cache.
	co.Close()
	cache2, err := runner.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	co2, err := NewCoordinator(Options{Cache: cache2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co2.Start(ln2)
	defer co2.Close()
	resumed, err := Submit(ctx, co2.Addr(), "integration-test-resume", manifest, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.CacheHits != len(plan.Points) || resumed.Stats.Computed != 0 {
		t.Fatalf("resume stats %+v, want %d cache hits and 0 computed", resumed.Stats, len(plan.Points))
	}
	for i, cached := range resumed.Cached {
		if !cached {
			t.Fatalf("resumed point %s not served from the cache", plan.Points[i].Key)
		}
	}
	matchesSerial("resumed", resumed)

	// The kill was real: worker 1 must have died before finishing the
	// sweep alone (otherwise the straggler path was not exercised).
	if workerCtx1.Err() == nil {
		t.Fatal("worker 1 was never killed")
	}
}

// renders assembles and renders each figure of plan from its results.
func renders(t *testing.T, plan *experiments.Plan, results []runner.Result) []string {
	t.Helper()
	out := make([]string, len(plan.Entries))
	for i, e := range plan.Entries {
		r, err := e.Exp.Assemble(results[e.Offset : e.Offset+len(e.Exp.Points)])
		if err != nil {
			t.Fatalf("assemble figure %s: %v", e.ID, err)
		}
		out[i] = r.Render()
	}
	return out
}
