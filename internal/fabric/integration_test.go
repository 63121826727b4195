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

// TestDistributedMatchesSerial is the fabric's headline invariant: a
// built-in figure swept through a coordinator and two real workers — one
// of which is killed mid-sweep so its leases re-dispatch — renders
// byte-identically to the historical serial run. It also proves the
// cache sharing is real: every accepted point is in the coordinator's
// cache, so a subsequent local run over that cache recomputes nothing,
// asserted through CacheStats.
func TestDistributedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed integration test")
	}
	plan, err := experiments.BuildPlan([]string{"5"}, experiments.Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := plan.Entries[0].Exp
	manifest, err := ManifestFor(plan.Points, plan.Refs)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: the serial, cache-less runner.
	serialResults, err := runner.Serial().Run(context.Background(), plan.Points)
	if err != nil {
		t.Fatal(err)
	}
	serialRender, err := exp.Assemble(serialResults)
	if err != nil {
		t.Fatal(err)
	}

	// Fabric: coordinator with its cache, probed directly by the
	// cache-sharing checks below.
	sharedCache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workerCtx1, killWorker1 := context.WithCancel(context.Background())
	defer killWorker1()
	var killOnce sync.Once
	co, err := NewCoordinator(Options{
		Cache:        sharedCache,
		LeaseTimeout: 2 * time.Second,
		IdleRetry:    10 * time.Millisecond,
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
	wg.Add(2)
	go func() {
		defer wg.Done()
		RunWorker(workerCtx1, WorkerOptions{
			Coordinator: co.Addr(), ID: "w1", Executors: 2,
			Logf: t.Logf, MaxBackoff: 100 * time.Millisecond,
		})
	}()
	go func() {
		defer wg.Done()
		RunWorker(workerCtx2, WorkerOptions{
			Coordinator: co.Addr(), ID: "w2", Executors: 2,
			Logf: t.Logf, MaxBackoff: 100 * time.Millisecond,
		})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sub, err := Submit(ctx, co.Addr(), "integration-test", manifest, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	stopWorker2()
	wg.Wait()

	// Byte-identical at the entry level...
	for i, res := range serialResults {
		if res.Err != nil {
			t.Fatalf("serial point %s failed: %v", res.Key, res.Err)
		}
		want, err := runner.EncodeEntry(res.Value)
		if err != nil {
			t.Fatal(err)
		}
		if string(sub.Bytes[i]) != string(want) {
			t.Fatalf("point %s: distributed entry bytes differ from serial", res.Key)
		}
	}
	// ...and at the rendered-figure level.
	fabricResults, err := DecodeResults(plan.Points, sub)
	if err != nil {
		t.Fatal(err)
	}
	fabricRender, err := exp.Assemble(fabricResults)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fabricRender.Render(), serialRender.Render(); got != want {
		t.Fatalf("distributed render differs from serial:\n--- distributed ---\n%s\n--- serial ---\n%s", got, want)
	}
	if sub.Stats.Computed+sub.Stats.CacheHits != len(plan.Points) {
		t.Fatalf("stats %+v do not account for all %d points", sub.Stats, len(plan.Points))
	}

	// Cache sharing, part 1: the coordinator stored every point it
	// accepted (the workers upload nothing), so probing its cache hits
	// all of them.
	before := sharedCache.Stats()
	for _, mp := range manifest {
		if _, ok := sharedCache.GetBytes(mp.CacheKey); !ok {
			t.Fatalf("point %s not in the shared cache after the sweep", mp.Ref.Key)
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
	plan2, err := experiments.BuildPlan([]string{"5"}, experiments.Quick, 0)
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
	localRender, err := plan2.Entries[0].Exp.Assemble(localResults)
	if err != nil {
		t.Fatal(err)
	}
	if localRender.Render() != serialRender.Render() {
		t.Fatal("cache-served local run renders differently from serial")
	}

	// The kill was real: worker 1 must have died before finishing the
	// sweep alone (otherwise the straggler path was not exercised).
	if workerCtx1.Err() == nil {
		t.Fatal("worker 1 was never killed")
	}
	_ = workerCtx2
}
