package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iobehind/internal/adio"
	"iobehind/internal/cluster"
	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/region"
	"iobehind/internal/sched"
	"iobehind/internal/tmio"
)

// startGateway spins up a server on a loopback listener and returns it
// with the ingest address and a shutdown helper.
func startGateway(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	s := New(cfg)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return s, ln.Addr().String(), stop
}

// teeSink fans records out to the gateway and an in-memory copy so tests
// can compare online aggregation against an offline sweep over the exact
// same records.
type teeSink struct {
	tcp     *tmio.TCPSink
	collect *tmio.CollectSink
}

func (s teeSink) Emit(rec tmio.StreamRecord) error {
	s.collect.Emit(rec)
	return s.tcp.Emit(rec)
}

func (s teeSink) Close() error { return s.tcp.Close() }

// runStreamingApp runs one traced simulation that streams every phase to
// the gateway — over binary frames or JSON lines — returning the locally
// collected copy of the records.
func runStreamingApp(t *testing.T, addr, appID string, seed int64, ranks, phases int, bytes int64, binary bool) *tmio.CollectSink {
	t.Helper()
	e := des.NewEngine(seed)
	w := mpi.NewWorld(e, mpi.Config{Size: ranks})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	sys := mpiio.NewSystem(w, fs, adio.Config{SubRequestSize: 1e6})
	tr := tmio.Attach(sys, tmio.Config{
		DisableOverhead: true,
		Strategy:        tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.5},
	})
	tcp, err := tmio.DialSinkWith(addr, tmio.SinkOptions{AppID: appID, Binary: binary})
	if err != nil {
		t.Errorf("%s: dial: %v", appID, err)
		return nil
	}
	collect := &tmio.CollectSink{}
	tr.SetSink(teeSink{tcp: tcp, collect: collect})
	err = w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, appID+".dat")
		var req *mpiio.Request
		for j := 0; j < phases; j++ {
			if req != nil {
				req.Wait()
			}
			req = f.IwriteAt(int64(j)*bytes, bytes)
			r.Compute(des.Second)
		}
		req.Wait()
		r.Finalize()
	})
	if err != nil {
		t.Errorf("%s: run: %v", appID, err)
	}
	if err := tcp.Close(); err != nil {
		t.Errorf("%s: close sink: %v", appID, err)
	}
	return collect
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func sameSeries(a, b *metrics.Series) error {
	if len(a.Points) != len(b.Points) {
		return fmt.Errorf("len %d != %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return fmt.Errorf("point %d: %+v != %+v", i, a.Points[i], b.Points[i])
		}
	}
	return nil
}

// TestConcurrentAppsOnlineMatchesOffline is the end-to-end acceptance
// test: four concurrent simulated applications — two speaking binary
// frames, two speaking JSON lines, all into the same listener — and for
// each app the gateway's online B/B_L/T step series must equal the
// offline region sweep over the very same records, whichever protocol
// carried them.
func TestConcurrentAppsOnlineMatchesOffline(t *testing.T) {
	s, addr, stop := startGateway(t, Config{})
	defer stop()

	const apps = 4
	collects := make([]*tmio.CollectSink, apps)
	var wg sync.WaitGroup
	for i := 0; i < apps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			collects[i] = runStreamingApp(t, addr, fmt.Sprintf("app-%d", i),
				int64(i+1), 2, 5+i, int64(i+1)*5e6, i%2 == 0)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := 0; i < apps; i++ {
		id := fmt.Sprintf("app-%d", i)
		want := int64(collects[i].Len())
		if want == 0 {
			t.Fatalf("%s: no records collected", id)
		}
		waitFor(t, id+" ingest", func() bool {
			info, ok := s.AppInfo(id)
			return ok && info.Records == want
		})
		series, ok := s.AppSeries(id)
		if !ok {
			t.Fatalf("%s: missing series", id)
		}

		// The offline truth: region.Sweep over the identical records.
		var bPh, blPh, tPh []region.Phase
		for _, rec := range collects[i].Records {
			bPh = append(bPh, RecordPhase(rec))
			if ph, ok := RecordLimitPhase(rec); ok {
				blPh = append(blPh, ph)
			}
			if ph, ok := RecordThroughputPhase(rec); ok {
				tPh = append(tPh, ph)
			}
		}
		if err := sameSeries(series.B, region.Sweep("B", bPh)); err != nil {
			t.Errorf("%s: B series: %v", id, err)
		}
		if err := sameSeries(series.BL, region.Sweep("B_L", blPh)); err != nil {
			t.Errorf("%s: B_L series: %v", id, err)
		}
		if err := sameSeries(series.T, region.Sweep("T", tPh)); err != nil {
			t.Errorf("%s: T series: %v", id, err)
		}
		if len(blPh) == 0 || len(tPh) == 0 {
			t.Errorf("%s: degenerate input (bl=%d t=%d records)", id, len(blPh), len(tPh))
		}
	}

	st := s.Stats()
	if st.Apps != apps || st.ConnsTotal != apps || st.Dropped != 0 || st.DecodeErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func writeLines(t *testing.T, addr string, lines []string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
}

func recordLine(app string, rank, phase int, ts, te, b float64) string {
	rec := tmio.StreamRecord{V: tmio.StreamVersion, App: app, Rank: rank, Phase: phase,
		TsSec: ts, TeSec: te, B: b}
	buf, _ := json.Marshal(rec)
	return string(buf)
}

// TestOversizedLineKeepsConnection is the regression test for the
// ErrTooLong bug: one line over MaxLineBytes used to kill the whole
// ingest connection (bufio.Scanner gives up, the read loop exits), and
// with it every later record from that producer. The gateway must skip
// to the next newline, count one decode error, and keep reading.
func TestOversizedLineKeepsConnection(t *testing.T) {
	s, addr, stop := startGateway(t, Config{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	write := func(data string) {
		t.Helper()
		if _, err := conn.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	write(recordLine("huge", 0, 0, 0, 0.5, 10) + "\n")
	// 2 MiB on one line, twice the default MaxLineBytes.
	write(`{"app":"huge","junk":"` + strings.Repeat("x", 2<<20) + `"}` + "\n")
	write(recordLine("huge", 0, 1, 1, 1.5, 10) + "\n")
	write(recordLine("huge", 0, 2, 2, 2.5, 10) + "\n")

	waitFor(t, "records after the oversized line", func() bool {
		return s.Stats().Ingested == 3
	})
	st := s.Stats()
	if st.DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1 (the oversized line)", st.DecodeErrors)
	}
	if st.ConnsActive != 1 {
		t.Fatalf("conns active = %d: the connection did not survive", st.ConnsActive)
	}
	info, ok := s.AppInfo("huge")
	if !ok || info.Records != 3 {
		t.Fatalf("app info = %+v ok=%v", info, ok)
	}
}

// writeFrame encodes recs as one binary frame and writes it to conn.
func writeFrame(t *testing.T, conn net.Conn, recs []tmio.StreamRecord) {
	t.Helper()
	buf, err := tmio.EncodeFrame(recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestFrameResyncAfterBadPayload: a frame whose header is sound but
// whose payload fails to decode costs one decode error, not the
// connection — the validated length prefix is the resync point.
func TestFrameResyncAfterBadPayload(t *testing.T) {
	s, addr, stop := startGateway(t, Config{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeFrame(t, conn, []tmio.StreamRecord{{App: "resync", Rank: 0, Phase: 0, TeSec: 0.5, B: 1}})
	// Corrupt a frame's first record-length prefix so DecodeFrame rejects
	// the payload; header and length stay valid.
	bad, err := tmio.EncodeFrame([]tmio.StreamRecord{{App: "resync", Rank: 0, Phase: 1, TeSec: 1.5, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bad[tmio.FrameHeaderLen] = 1 // recLen = 1: below the v1 minimum
	bad[tmio.FrameHeaderLen+1] = 0
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	writeFrame(t, conn, []tmio.StreamRecord{{App: "resync", Rank: 0, Phase: 2, TeSec: 2.5, B: 1}})

	waitFor(t, "frames after the corrupt payload", func() bool {
		return s.Stats().Ingested == 2
	})
	st := s.Stats()
	if st.DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1", st.DecodeErrors)
	}
	if st.ConnsActive != 1 {
		t.Fatalf("conns active = %d: the connection did not survive", st.ConnsActive)
	}
}

// TestBinaryReconnectMidStream: one application delivers half its
// records, loses the connection, and reconnects to deliver the rest —
// the gateway's online series must still equal the offline sweep over
// all the records (the mid-stream-reconnect acceptance case).
func TestBinaryReconnectMidStream(t *testing.T) {
	s, addr, stop := startGateway(t, Config{})
	defer stop()

	const phases = 10
	all := make([]tmio.StreamRecord, phases)
	for j := range all {
		all[j] = tmio.StreamRecord{V: tmio.StreamVersion, App: "reconn", Rank: 0, Phase: j,
			TsSec: float64(j), TeSec: float64(j) + 0.5, B: 1e6 * float64(j+1)}
	}
	for _, half := range [][]tmio.StreamRecord{all[:phases/2], all[phases/2:]} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		writeFrame(t, conn, half)
		conn.Close()
	}
	waitFor(t, "both halves ingested", func() bool {
		info, ok := s.AppInfo("reconn")
		return ok && info.Records == phases
	})
	series, ok := s.AppSeries("reconn")
	if !ok {
		t.Fatal("missing series")
	}
	var bPh []region.Phase
	for _, rec := range all {
		bPh = append(bPh, RecordPhase(rec))
	}
	if err := sameSeries(series.B, region.Sweep("B", bPh)); err != nil {
		t.Fatalf("B series after reconnect: %v", err)
	}
	if st := s.Stats(); st.DecodeErrors != 0 || st.ConnsTotal != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShutdownDrainsQueuedRecords: records accepted before shutdown must
// be aggregated even when the consumer is slow — graceful drain, not
// abandonment.
func TestShutdownDrainsQueuedRecords(t *testing.T) {
	const n = 100
	s := New(Config{QueueDepth: n + 10})
	s.ingestHook = func() { time.Sleep(500 * time.Microsecond) }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	lines := make([]string, n)
	for i := range lines {
		lines[i] = recordLine("drain", 0, i, float64(i), float64(i)+0.5, 10)
	}
	writeLines(t, ln.Addr().String(), lines)

	// Give the reader a moment to pull the bytes off the socket, then
	// shut down while the slow consumer still has most of the queue.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	st := s.Stats()
	if st.Ingested != n {
		t.Fatalf("ingested %d of %d queued records across shutdown", st.Ingested, n)
	}
	// After a drained shutdown the connection set — the one source of
	// truth behind ConnsActive — must be empty.
	if st.ConnsActive != 0 {
		t.Fatalf("conns active = %d after shutdown, want 0", st.ConnsActive)
	}
}

// TestBackpressureDropsOldest: a deliberately slow aggregator with a tiny
// queue must shed load by dropping the oldest records — bounded memory,
// counted loss, never a stalled reader.
func TestBackpressureDropsOldest(t *testing.T) {
	const n = 300
	s := New(Config{QueueDepth: 4})
	s.ingestHook = func() { time.Sleep(2 * time.Millisecond) }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	lines := make([]string, n)
	for i := range lines {
		lines[i] = recordLine("burst", 0, i, float64(i), float64(i)+0.5, 10)
	}
	start := time.Now()
	writeLines(t, ln.Addr().String(), lines)
	// The writer must not be blocked by the slow consumer: n records at
	// 2ms each would take 600ms if reads were gated on aggregation.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("sender blocked for %v: reader is gated on the aggregator", elapsed)
	}

	// ConnsActive alone is 0 before Serve has accepted the connection
	// too; ConnsTotal proves it was accepted, so together they mean the
	// connection was handled and its queue drained.
	waitFor(t, "connection close", func() bool {
		st := s.Stats()
		return st.ConnsTotal == 1 && st.ConnsActive == 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-served
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops: queue cannot have stayed bounded")
	}
	if st.Ingested+st.Dropped != n {
		t.Fatalf("ingested %d + dropped %d != %d", st.Ingested, st.Dropped, n)
	}
	// Drop-oldest: the newest record must have survived.
	info, ok := s.AppInfo("burst")
	if !ok {
		t.Fatal("app missing")
	}
	if want := timeOf(float64(n-1) + 0.5); info.LastActivity != want {
		t.Fatalf("latest record dropped: last activity %v, want %v", info.LastActivity, want)
	}
}

// TestDecodeToleranceAndDemux: unknown fields and future versions pass
// through; garbage lines are counted, not fatal; records without an App
// fall back to per-connection identities.
func TestDecodeToleranceAndDemux(t *testing.T) {
	s, addr, stop := startGateway(t, Config{})
	defer stop()

	writeLines(t, addr, []string{
		`{"v":7,"app":"future","rank":0,"phase":0,"ts":0,"te":1,"b":5,"new_field":"yes"}`,
		`this is not JSON`,
		`{"rank":1,"phase":0,"ts":1,"te":2,"b":7}`, // no app: demux by connection
	})
	waitFor(t, "ingest", func() bool { return s.Stats().Ingested == 2 })
	if got := s.Stats().DecodeErrors; got != 1 {
		t.Fatalf("decode errors = %d, want 1", got)
	}
	info, ok := s.AppInfo("future")
	if !ok || info.Version != 7 {
		t.Fatalf("future app info = %+v ok=%v", info, ok)
	}
	apps := s.Apps()
	if len(apps) != 2 {
		t.Fatalf("apps = %+v", apps)
	}
	var connApp string
	for _, a := range apps {
		if a.ID != "future" {
			connApp = a.ID
		}
	}
	if !strings.HasPrefix(connApp, "conn-") {
		t.Fatalf("fallback app id = %q", connApp)
	}
}

// feedPeriodic ingests a synthetic periodic application directly:
// `phases` bursts of length burstLen every period, starting at t=0.
func feedPeriodic(s *Server, app string, phases int, period, burstLen float64, b float64) {
	for j := 0; j < phases; j++ {
		start := float64(j) * period
		s.reg.ingest(tmio.StreamRecord{
			V: tmio.StreamVersion, App: app, Rank: 0, Phase: j,
			TsSec: start, TeSec: start + period, B: b,
			T: b * 4, TtsSec: start, TteSec: start + burstLen,
		}, "conn-x")
	}
}

func TestPredictRecoversPeriod(t *testing.T) {
	s := New(Config{})
	feedPeriodic(s, "periodic", 12, 3.0, 0.4, 50e6)

	p, ok := s.Predict("periodic", 0)
	if !ok {
		t.Fatal("no prediction for a strongly periodic app")
	}
	if math.Abs(p.Period.Seconds()-3.0) > 0.5 {
		t.Fatalf("period = %v, want ~3s", p.Period)
	}
	lastStart := 11 * 3.0
	if p.LastBurst != timeOf(lastStart) {
		t.Fatalf("last burst = %v, want %v", p.LastBurst, timeOf(lastStart))
	}
	if p.Next <= p.LastBurst {
		t.Fatalf("next burst %v not after last %v", p.Next, p.LastBurst)
	}
	if bl := p.BurstLen.Seconds(); math.Abs(bl-0.4) > 0.05 {
		t.Fatalf("burst len = %v, want ~0.4s", bl)
	}
	// Forecast conversion carries the same numbers.
	f := p.Forecast()
	if f.Period != p.Period || f.LastBurst != p.LastBurst || f.BurstLen != p.BurstLen {
		t.Fatalf("forecast %+v != prediction %+v", f, p)
	}

	// Too little history: no forecast.
	feedPeriodic(s, "young", 2, 3.0, 0.4, 50e6)
	if _, ok := s.Predict("young", 0); ok {
		t.Fatal("prediction from 2 phases")
	}
	if _, ok := s.Predict("unknown", 0); ok {
		t.Fatal("prediction for unknown app")
	}
}

func TestHTTPSurface(t *testing.T) {
	s := New(Config{})
	feedPeriodic(s, "hacc-io", 10, 2.0, 0.25, 80e6)
	web := httptest.NewServer(s.Handler())
	defer web.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	code, body := get("/apps")
	if code != 200 {
		t.Fatalf("apps: %d", code)
	}
	var apps []map[string]any
	if err := json.Unmarshal([]byte(body), &apps); err != nil {
		t.Fatalf("apps JSON: %v", err)
	}
	if len(apps) != 1 || apps[0]["id"] != "hacc-io" || apps[0]["records"].(float64) != 10 {
		t.Fatalf("apps = %s", body)
	}

	code, body = get("/apps/hacc-io/series")
	if code != 200 {
		t.Fatalf("series: %d", code)
	}
	var series struct {
		ID                string      `json:"id"`
		RequiredBandwidth float64     `json:"required_bandwidth"`
		B                 []pointJSON `json:"b"`
		T                 []pointJSON `json:"t"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if series.ID != "hacc-io" || len(series.B) == 0 || len(series.T) == 0 {
		t.Fatalf("series = %s", body)
	}
	if series.RequiredBandwidth != 80e6 {
		t.Fatalf("required = %v", series.RequiredBandwidth)
	}

	code, body = get("/apps/hacc-io/predict")
	if code != 200 {
		t.Fatalf("predict: %d", code)
	}
	var pred PredictJSON
	if err := json.Unmarshal([]byte(body), &pred); err != nil || !pred.OK {
		t.Fatalf("predict = %s (err %v)", body, err)
	}
	if math.Abs(pred.PeriodSec-2.0) > 0.5 {
		t.Fatalf("predict period = %v", pred.PeriodSec)
	}

	if code, _ := get("/apps/nope/series"); code != 404 {
		t.Fatalf("unknown series code = %d", code)
	}
	if code, _ := get("/apps/nope/predict"); code != 404 {
		t.Fatalf("unknown predict code = %d", code)
	}
	if code, _ := get("/apps/hacc-io/predict?now=bogus"); code != 400 {
		t.Fatalf("bad now code = %d", code)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"iogateway_records_ingested_total",
		"iogateway_connections_total",
		"iogateway_records_dropped_total",
		`iogateway_app_required_bandwidth_bytes_per_second{app="hacc-io"} 8e+07`,
		`iogateway_app_records_total{app="hacc-io"} 10`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestClusterPredictiveViaGateway closes the paper's loop over a real
// network boundary: the cluster's predictive limiter pulls next-burst
// forecasts from the gateway's HTTP API instead of in-process FTIO.
func TestClusterPredictiveViaGateway(t *testing.T) {
	s := New(Config{})
	// The gateway has already observed job 0's periodic write pattern
	// (period = compute + write time of the scenario below).
	feedPeriodic(s, "job0", 10, 2.2, 0.2, 100e6)
	web := httptest.NewServer(s.Handler())
	defer web.Close()

	client := NewPredictClient(web.URL)
	var calls, hits int
	cfg := cluster.Config{
		Nodes: 64,
		Jobs: []cluster.JobSpec{
			{Nodes: 8, Loops: 4, BytesPerNode: 1 << 28, Compute: 2 * des.Second},
			{Nodes: 8, Async: true, Loops: 4, BytesPerNode: 1 << 27, Compute: 3 * des.Second},
		},
		Policy: cluster.LimitPredictive,
		FS:     &pfs.Config{WriteCapacity: 2e9, ReadCapacity: 2e9},
		Forecasts: func(job int, now des.Time) (sched.Forecast, bool) {
			calls++
			f, ok := client.Predict(fmt.Sprintf("job%d", job), now)
			if ok {
				hits++
			}
			return f, ok
		},
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || hits == 0 {
		t.Fatalf("gateway forecasts unused: calls=%d hits=%d", calls, hits)
	}
	if len(res.Jobs) != 2 || res.Makespan <= 0 {
		t.Fatalf("cluster result = %+v", res)
	}
}
