// Command iofabric runs the distributed sweep coordinator: it accepts
// sweep manifests from iosweep -fabric, leases points to attached
// ioworker processes, re-dispatches leases that expire (straggler
// speculation — the first byte-identical result wins), stores each
// accepted result once in its content-addressed cache, from which a
// restarted coordinator resumes, and serves /metrics over HTTP.
//
//	iofabric                                         # defaults: :7777 TCP, :7778 HTTP
//	iofabric -listen 0.0.0.0:7777 -http 0.0.0.0:7778 -cache .iofabric-cache
//
// The HTTP endpoint is read-only: GET /metrics (Prometheus text
// exposition: points pending/in-flight/done, re-dispatches, per-worker
// liveness, cache hit ratio) and GET /healthz; the coordinator writes
// the cache only when it accepts a lease's result. Both listeners are
// bound before the startup line is printed; a taken address exits 1.
//
// That a distributed sweep, a worker killed mid-sweep included, renders
// byte-identically to the serial one, and that a restarted coordinator
// resumes it from the cache alone, is TestDistributedMatchesSerial in
// internal/fabric.
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
	"time"

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
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
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
