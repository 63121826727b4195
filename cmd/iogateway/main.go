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
// of -retention-tail points), so per-app memory is bounded instead of
// growing for the life of the run.
//
// Both addresses are bound before the startup line is logged; a taken
// address, or a server failing later, exits 1 (a signal drains and exits
// 0). Traced applications point tmio.DialSinkWith at the -listen address;
// schedulers and dashboards query the -http address:
//
//	GET /healthz              liveness
//	GET /metrics              Prometheus text exposition
//	GET /apps                 applications seen so far
//	GET /apps/{id}/series     online B/B_L/T step series
//	GET /apps/{id}/predict    FTIO next-burst forecast
//
// With -smoke the command instead runs a self-contained end-to-end check
// on ephemeral ports — gateway up, one traced simulation streamed in per
// protocol (JSON lines and binary frames), HTTP surface probed — and
// exits 0/1. Used by `make gateway-smoke`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iobehind"
	"iobehind/internal/des"
	"iobehind/internal/gateway"
	"iobehind/internal/tmio"
)

func main() {
	listen := flag.String("listen", ":9007", "TCP address for TMIO stream ingest")
	httpAddr := flag.String("http", ":9008", "HTTP address for queries and metrics")
	queue := flag.Int("queue", 1024, "per-connection record queue depth")
	retention := flag.Float64("retention-window", 0,
		"per-app history bound in virtual seconds: regions older than this behind an app's activity frontier are compacted into a fixed summary (0 = retain everything)")
	retentionTail := flag.Int("retention-tail", 64,
		"coarsened summary points kept per compacted sweep")
	smoke := flag.Bool("smoke", false, "run a self-contained end-to-end check and exit")
	flag.Parse()

	if *smoke {
		if err := runSmoke(*queue); err != nil {
			fmt.Fprintln(os.Stderr, "iogateway smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("iogateway smoke: OK")
		return
	}

	logger := log.New(os.Stderr, "iogateway: ", log.LstdFlags)
	srv := gateway.New(gateway.Config{
		QueueDepth:      *queue,
		RetentionWindow: des.DurationOf(*retention),
		RetentionTail:   *retentionTail,
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

// runSmoke exercises the whole pipeline in-process: gateway on ephemeral
// ports, one traced phased simulation streamed in per wire protocol
// (JSON lines and binary frames, so the sniffing path and both read
// loops are covered end to end), and the HTTP surface queried for the
// resulting series and forecast.
func runSmoke(queue int) error {
	srv := gateway.New(gateway.Config{QueueDepth: queue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	web := &http.Server{Handler: srv.Handler()}
	webLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go web.Serve(webLn)
	base := "http://" + webLn.Addr().String()

	// One periodic checkpointing app per wire protocol, streamed live.
	// A slow file system gives the write bursts real width (~250 ms in
	// each ~2 s period), so the binned FTIO signal sees them.
	streamApp := func(appID string, binary bool) error {
		sim := iobehind.NewSim(iobehind.Options{
			Ranks: 4,
			FS:    &iobehind.FSConfig{WriteCapacity: 256e6, ReadCapacity: 256e6},
		})
		sink, err := tmio.DialSinkWith(ln.Addr().String(), tmio.SinkOptions{AppID: appID, Binary: binary})
		if err != nil {
			return err
		}
		sim.Tracer.SetSink(sink)
		if _, err := sim.Run(iobehind.PhasedMain(sim.IO, iobehind.PhasedConfig{
			Phases:        10,
			BytesPerPhase: 16 << 20,
			Compute:       2 * iobehind.Second,
		})); err != nil {
			return err
		}
		if err := sink.Close(); err != nil {
			return fmt.Errorf("sink close (%s): %w", appID, err)
		}
		return nil
	}
	if err := streamApp("smoke", false); err != nil {
		return err
	}
	if err := streamApp("smoke-bin", true); err != nil {
		return err
	}

	// Wait for the ingest side to drain both connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, ok := srv.AppInfo("smoke")
		binInfo, binOK := srv.AppInfo("smoke-bin")
		if ok && binOK && info.Records > 0 && binInfo.Records == info.Records && srv.Stats().ConnsActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("records never arrived: %+v", srv.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body), nil
	}
	if _, err := get("/healthz"); err != nil {
		return err
	}
	if _, err := get("/metrics"); err != nil {
		return err
	}
	body, err := get("/apps/smoke/series")
	if err != nil {
		return err
	}
	var series struct {
		B []struct{ T, V float64 } `json:"b"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		return fmt.Errorf("series JSON: %w", err)
	}
	if len(series.B) == 0 {
		return fmt.Errorf("empty B series: %s", body)
	}
	// The binary-protocol run is the same deterministic simulation, so
	// its online series must match the JSON-protocol run point for point.
	binBody, err := get("/apps/smoke-bin/series")
	if err != nil {
		return err
	}
	var binSeries struct {
		B []struct{ T, V float64 } `json:"b"`
	}
	if err := json.Unmarshal([]byte(binBody), &binSeries); err != nil {
		return fmt.Errorf("binary series JSON: %w", err)
	}
	if len(binSeries.B) != len(series.B) {
		return fmt.Errorf("binary B series has %d steps, JSON has %d", len(binSeries.B), len(series.B))
	}
	for i := range series.B {
		if binSeries.B[i] != series.B[i] {
			return fmt.Errorf("binary B series diverges at step %d: %+v vs %+v", i, binSeries.B[i], series.B[i])
		}
	}
	body, err = get("/apps/smoke/predict")
	if err != nil {
		return err
	}
	var pred gateway.PredictJSON
	if err := json.Unmarshal([]byte(body), &pred); err != nil {
		return fmt.Errorf("predict JSON: %w", err)
	}
	if !pred.OK {
		return fmt.Errorf("no forecast for a periodic app: %s", body)
	}
	fmt.Printf("  app %q: %d B-series steps, period %.2f s (confidence %.2f)\n",
		"smoke", len(series.B), pred.PeriodSec, pred.Confidence)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	web.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-served
}
