// Command iogateway runs the live telemetry gateway: a long-running
// collector that accepts TMIO stream connections (JSON lines or binary
// frames over TCP, sniffed per connection — see docs/STREAM_FORMAT.md),
// aggregates each application's B/B_L/T series online, and serves them —
// plus FTIO next-burst predictions and Prometheus metrics — over HTTP:
//
//	iogateway -listen :9007 -http :9008
//
// For long-lived deployments, -retention-window N bounds each app's
// retained history to the last N virtual seconds of activity (older
// regions are compacted into an exact running max plus a coarsened tail
// of at most 64 points), so per-app memory is bounded instead of growing
// for the life of the run.
//
// Both addresses are bound before the startup line is logged; a taken
// address, or a server failing later, exits 1 (a signal drains and exits
// 0). Traced applications point tmio.DialSink at the -listen address;
// schedulers and dashboards query the -http address:
//
//	GET /healthz              liveness
//	GET /metrics              Prometheus text exposition
//	GET /apps                 applications seen so far
//	GET /apps/{id}/series     online B/B_L/T step series
//	GET /apps/{id}/predict    FTIO next-burst forecast
//
// internal/gateway's tests drive the same server end to end over both
// protocols and the HTTP surface; examples/streaming runs it in process
// under a streamed simulation.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iobehind/internal/des"
	"iobehind/internal/gateway"
)

func main() {
	listen := flag.String("listen", ":9007", "TCP address for TMIO stream ingest")
	httpAddr := flag.String("http", ":9008", "HTTP address for queries and metrics")
	queue := flag.Int("queue", 1024, "per-connection record queue depth")
	retention := flag.Float64("retention-window", 0,
		"per-app history bound in virtual seconds: regions older than this behind an app's activity frontier are compacted into a fixed summary (0 = retain everything)")
	flag.Parse()

	logger := log.New(os.Stderr, "iogateway: ", log.LstdFlags)
	srv := gateway.New(gateway.Config{
		QueueDepth:      *queue,
		RetentionWindow: des.DurationOf(*retention),
		Logf:            logger.Printf,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatal(err)
	}
	webLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		ln.Close()
		logger.Fatal(err)
	}
	web := &http.Server{Handler: srv.Handler()}

	errs := make(chan error, 2)
	go func() { errs <- srv.Serve(ln) }()
	go func() { errs <- web.Serve(webLn) }()
	logger.Printf("ingest on %s, HTTP on %s", ln.Addr(), webLn.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	failed := false
	select {
	case s := <-sig:
		logger.Printf("%v: draining", s)
	case err := <-errs:
		logger.Printf("server failed: %v", err)
		failed = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	web.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		logger.Fatal(err)
	}
	st := srv.Stats()
	logger.Printf("done: %d conns, %d records ingested, %d dropped",
		st.ConnsTotal, st.Ingested, st.Dropped)
	if failed {
		os.Exit(1)
	}
}
