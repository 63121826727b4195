// Command iofabric runs the distributed sweep coordinator: it accepts
// sweep manifests from iosweep -fabric, leases points to attached
// ioworker processes, re-dispatches leases that expire (straggler
// speculation — the first byte-identical result wins), stores each
// accepted result once in its content-addressed cache, from which a
// restarted coordinator resumes, and serves /metrics over HTTP.
//
//	iofabric                                         # defaults: :7777 TCP, :7778 HTTP
//	iofabric -listen 0.0.0.0:7777 -http 0.0.0.0:7778 -cache .iofabric-cache
//	iofabric -smoke                                  # self-contained distributed-vs-serial check
//
// The HTTP endpoint is read-only: GET /metrics (Prometheus text
// exposition: points pending/in-flight/done, re-dispatches, per-worker
// liveness, cache hit ratio) and GET /healthz; the coordinator writes
// the cache only when it accepts a lease's result. Both listeners are
// bound before the startup line is printed; a taken address exits 1.
//
// -smoke runs the whole fabric against itself on loopback: a coordinator,
// two in-process workers, one of which is killed after the first accepted
// result so its leases re-dispatch, and a submission of every figure at
// quick scale whose rendered output is compared byte-for-byte against the
// serial runner. It then checks that the coordinator wrote one cache
// entry per computed point, and that a second coordinator over the same
// cache directory serves a resubmission entirely from the cache with no
// worker attached. Exit status 0 means the fabric path is sound end to
// end.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/fabric"
	"iobehind/internal/runner"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7777", "TCP address for the fabric protocol (workers and submissions)")
	httpAddr := flag.String("http", "127.0.0.1:7778", "HTTP address for /metrics and /healthz")
	cacheDir := flag.String("cache", ".iofabric-cache", "content-addressed result cache directory")
	lease := flag.Duration("lease", 60*time.Second, "lease timeout before a point is re-dispatched")
	quiet := flag.Bool("q", false, "suppress per-lease logs")
	smoke := flag.Bool("smoke", false, "run the self-contained distributed-vs-serial smoke check and exit")
	smokeScale := flag.String("smoke-scale", "quick", "experiment scale for -smoke")
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	if *smoke {
		return runSmoke(*smokeScale, logf)
	}

	cache, err := runner.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iofabric:", err)
		return 1
	}
	co, err := fabric.NewCoordinator(fabric.Options{
		Cache:        cache,
		LeaseTimeout: *lease,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iofabric:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iofabric:", err)
		return 1
	}
	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		ln.Close()
		fmt.Fprintln(os.Stderr, "iofabric:", err)
		return 1
	}
	co.Start(ln)
	defer co.Close()

	httpSrv := &http.Server{Handler: co.Handler()}
	go func() {
		if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "iofabric: http:", err)
		}
	}()
	defer httpSrv.Close()

	fmt.Fprintf(os.Stderr, "iofabric: coordinator on %s, metrics on http://%s (cache %s)\n",
		ln.Addr(), httpLn.Addr(), *cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "iofabric: shutting down")
	return 0
}

// runSmoke is the end-to-end self-check behind `make fabric-smoke`: a
// loopback coordinator, two workers, a deterministic kill of one worker
// after the first accepted result, and a byte-for-byte comparison of
// every figure's rendered output against the serial runner. Then the
// two properties of the one result store: each computed point was
// written to the cache exactly once, and a new coordinator over the same
// cache directory answers a resubmission from the cache alone.
func runSmoke(scaleName string, logf func(string, ...any)) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "iofabric: smoke FAIL: "+format+"\n", args...)
		return 1
	}
	scale, err := experiments.ParseScale(scaleName)
	if err != nil {
		return fail("%v", err)
	}
	plan, err := experiments.BuildPlan(nil, scale, 0)
	if err != nil {
		return fail("%v", err)
	}
	manifest, err := fabric.ManifestFor(plan.Points, plan.Refs)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "iofabric: smoke: %d points across %d experiments at %s scale\n",
		len(plan.Points), len(plan.Entries), scale)

	// Ground truth first: the serial, cache-less runner.
	serialResults, err := runner.Serial().Run(context.Background(), plan.Points)
	if err != nil {
		return fail("serial run: %v", err)
	}
	serialRenders := make([]string, len(plan.Entries))
	for i, e := range plan.Entries {
		r, err := e.Exp.Assemble(serialResults[e.Offset : e.Offset+len(e.Exp.Points)])
		if err != nil {
			return fail("assemble %s (serial): %v", e.ID, err)
		}
		serialRenders[i] = r.Render()
	}
	// matchesSerial compares every figure a submission assembles with
	// its serial render.
	matchesSerial := func(sub *fabric.SubmitResult) error {
		results, err := fabric.DecodeResults(plan.Points, sub)
		if err != nil {
			return err
		}
		for i, e := range plan.Entries {
			r, err := e.Exp.Assemble(results[e.Offset : e.Offset+len(e.Exp.Points)])
			if err != nil {
				return fmt.Errorf("assemble %s (fabric): %w", e.ID, err)
			}
			if r.Render() != serialRenders[i] {
				return fmt.Errorf("figure %s: distributed render differs from serial", e.ID)
			}
		}
		return nil
	}

	tmp, err := os.MkdirTemp("", "iofabric-smoke-*")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)
	cache, err := runner.OpenCache(tmp)
	if err != nil {
		return fail("%v", err)
	}

	workerCtx1, killWorker1 := context.WithCancel(context.Background())
	defer killWorker1()
	var killOnce sync.Once
	co, err := fabric.NewCoordinator(fabric.Options{
		Cache:        cache,
		LeaseTimeout: 5 * time.Second,
		IdleRetry:    10 * time.Millisecond,
		Logf:         logf,
		OnAccept: func(worker string, index int, pointKey string) {
			killOnce.Do(func() {
				logf("iofabric: smoke: killing worker w1 after first acceptance (%s)", pointKey)
				killWorker1()
			})
		},
	})
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	co.Start(ln)
	defer co.Close()

	workerCtx2, stopWorker2 := context.WithCancel(context.Background())
	defer stopWorker2()
	var wg sync.WaitGroup
	for i, wctx := range []context.Context{workerCtx1, workerCtx2} {
		wg.Add(1)
		go func(i int, wctx context.Context) {
			defer wg.Done()
			fabric.RunWorker(wctx, fabric.WorkerOptions{
				Coordinator: co.Addr(),
				ID:          fmt.Sprintf("w%d", i+1),
				Executors:   2,
				Logf:        logf,
				MaxBackoff:  200 * time.Millisecond,
			})
		}(i, wctx)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	sub, err := fabric.Submit(ctx, co.Addr(), "iofabric-smoke", manifest, logf)
	if err != nil {
		return fail("submit: %v", err)
	}
	stopWorker2()
	wg.Wait()

	if err := matchesSerial(sub); err != nil {
		return fail("%v", err)
	}
	snap := co.Snapshot()
	fmt.Fprintf(os.Stderr, "iofabric: smoke PASS: %d points byte-identical to serial (computed=%d redispatches=%d duplicates=%d mismatches=%d, %d workers seen)\n",
		len(plan.Points), sub.Stats.Computed, snap.Totals.Redispatches, snap.Totals.Duplicates, snap.Totals.Mismatches, len(snap.Workers))
	if snap.Totals.Mismatches != 0 {
		return fail("duplicate completions disagreed byte-for-byte")
	}
	if writes := cache.Stats().Writes; writes != sub.Stats.Computed {
		return fail("cache written %d times for %d computed points, want once per point", writes, sub.Stats.Computed)
	}

	// Resume: a new coordinator over the same directory, no worker
	// attached, must serve every point from the cache.
	co.Close()
	cache2, err := runner.OpenCache(tmp)
	if err != nil {
		return fail("%v", err)
	}
	co2, err := fabric.NewCoordinator(fabric.Options{Cache: cache2, Logf: logf})
	if err != nil {
		return fail("%v", err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	co2.Start(ln2)
	defer co2.Close()
	resumeCtx, cancelResume := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelResume()
	resumed, err := fabric.Submit(resumeCtx, co2.Addr(), "iofabric-smoke-resume", manifest, logf)
	if err != nil {
		return fail("resubmit to a restarted coordinator: %v", err)
	}
	if resumed.Stats.CacheHits != len(plan.Points) || resumed.Stats.Computed != 0 {
		return fail("resume stats %+v, want %d cache hits and 0 computed", resumed.Stats, len(plan.Points))
	}
	for i, c := range resumed.Cached {
		if !c {
			return fail("resumed point %s not served from the cache", plan.Points[i].Key)
		}
	}
	if err := matchesSerial(resumed); err != nil {
		return fail("resume: %v", err)
	}
	fmt.Fprintf(os.Stderr, "iofabric: smoke PASS: one cache write per computed point; a restarted coordinator served all %d points from the cache\n",
		len(plan.Points))
	return 0
}
