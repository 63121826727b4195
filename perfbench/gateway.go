package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"iobehind/internal/des"
	"iobehind/internal/ftio"
	"iobehind/internal/gateway"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
)

const (
	// retention is the gateway's RetentionWindow: 128 phases of every
	// rank of an app, so per-app state stops growing after warm-up.
	retention = 128 * des.Second
	// warmBatches per app stream 1.5 windows, so every app has been
	// compacted before timing starts.
	warmBatches = (3*128/2 + batchPhases - 1) / batchPhases
	// pollEvery-th batch is followed by one scheduler poll.
	pollEvery = 8
	// pollSleep is the pause between visibility checks: long enough that
	// the prober leaves the gateway its cores and app lock.
	pollSleep = 50 * time.Microsecond
	// visibleTimeout bounds the wait for one batch; a batch still not
	// visible by then has lost records.
	visibleTimeout = 10 * time.Second
	// ftioBins is the gateway's default DFT resolution.
	ftioBins = 128
)

// errLost ends a run whose batch never became visible.
var errLost = errors.New("batch never became visible")

// streamBatch is one generated, encoded batch.
type streamBatch struct {
	app     int
	binary  bool // one binary frame, else JSON lines
	recs    []tmio.StreamRecord
	payload []byte
	max     float64 // region.MaxRequired over the batch's B phases
}

// streamHarness drives one in-process gateway over two loopback
// connections, one carrying binary frames and one JSON lines.
type streamHarness struct {
	seed    int64
	srv     *gateway.Server
	h       http.Handler
	served  chan error
	bin, js net.Conn
	batches int // sent so far; batch n goes to app n mod streamApps
	sent    [streamApps]int64
	maxB    [streamApps]float64
	mirror  []*appMirror // traced run only
}

func startStream(seed int64, traced bool) (*streamHarness, error) {
	srv := gateway.New(gateway.Config{RetentionWindow: retention})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &streamHarness{seed: seed, srv: srv, h: srv.Handler(), served: make(chan error, 1)}
	go func() { g.served <- srv.Serve(ln) }()
	if g.bin, err = net.Dial("tcp", ln.Addr().String()); err == nil {
		g.js, err = net.Dial("tcp", ln.Addr().String())
	}
	if err != nil {
		g.close()
		return nil, err
	}
	if traced {
		for a := 0; a < streamApps; a++ {
			g.mirror = append(g.mirror, newAppMirror())
		}
	}
	return g, nil
}

// close hangs up both connections, shuts the gateway down once every
// queued record is aggregated, and waits for Serve to return.
func (g *streamHarness) close() error {
	for _, c := range []net.Conn{g.bin, g.js} {
		if c != nil {
			c.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), visibleTimeout)
	defer cancel()
	err := g.srv.Shutdown(ctx)
	if serr := <-g.served; err == nil {
		err = serr
	}
	return err
}

// next generates and encodes the next batch. Batches alternate between
// the binary and the JSON connection, and each app's batches alternate
// too, from one round over the apps to the next.
func (g *streamHarness) next() (*streamBatch, error) {
	n := g.batches
	g.batches++
	app, k := n%streamApps, n/streamApps
	recs := genBatch(g.seed, app, k)
	binary := (n+k)%2 == 0
	payload, err := encodeBatch(recs, binary)
	return &streamBatch{app: app, binary: binary, recs: recs, payload: payload, max: batchMax(recs)}, err
}

// send writes a batch on its connection and waits, polling with
// pollSleep, until the app's record count shows all of it. It returns
// the time from the first write until the batch was seen.
func (g *streamHarness) send(b *streamBatch, rec *recorder, op int) (time.Duration, error) {
	name := appName(b.app)
	want := g.sent[b.app] + int64(len(b.recs))
	t0 := time.Now()
	root := rec.begin("gateway.op", -1, op)
	defer rec.end(root)
	conn := g.js
	if b.binary {
		conn = g.bin
	}
	id := rec.begin("gateway.write", root, op)
	_, err := conn.Write(b.payload)
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("write batch: %w", err)
	}
	for {
		if info, _ := g.srv.AppInfo(name); info.Records >= want {
			break
		}
		if time.Since(t0) > visibleTimeout {
			return 0, fmt.Errorf("%w: %s after %v", errLost, name, visibleTimeout)
		}
		time.Sleep(pollSleep)
	}
	el := time.Since(t0)
	g.sent[b.app] = want
	g.maxB[b.app] = max(g.maxB[b.app], b.max)
	if g.mirror != nil && rec == nil {
		g.mirror[b.app].add(b.recs)
	}
	return el, nil
}

// poll is one scheduler poll of app: AppInfo, AppSeries, Predict and a
// /metrics scrape through the HTTP handler.
func (g *streamHarness) poll(app int, rec *recorder, op int) (time.Duration, error) {
	name := appName(app)
	t0 := time.Now()
	root := rec.begin("gateway.poll", -1, op)
	id := rec.begin("gateway.info", root, op)
	_, okInfo := g.srv.AppInfo(name)
	rec.end(id)
	id = rec.begin("gateway.series", root, op)
	_, okSeries := g.srv.AppSeries(name)
	rec.end(id)
	id = rec.begin("gateway.predict", root, op)
	_, okPredict := g.srv.Predict(name, 0)
	rec.end(id)
	id = rec.begin("gateway.scrape", root, op)
	w := httptest.NewRecorder()
	g.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	rec.end(id)
	rec.end(root)
	el := time.Since(t0)
	if !okInfo || !okSeries || !okPredict || w.Code != http.StatusOK {
		return el, fmt.Errorf("poll %s: info %v, series %v, predict %v, scrape status %d",
			name, okInfo, okSeries, okPredict, w.Code)
	}
	return el, nil
}

// probe replays a traced batch through the layers the gateway calls,
// from outside: frame or JSON decoding, the three incremental sweeps
// with retention, and (on poll ops) FTIO detection over the app's
// retained burst windows.
func (g *streamHarness) probe(b *streamBatch, rec *recorder, op int, detect bool) error {
	var err error
	if b.binary {
		id := rec.begin("tmio.frame_decode", -1, op)
		var recs []tmio.StreamRecord
		recs, _, err = tmio.DecodeFrame(make([]tmio.StreamRecord, 0, len(b.recs)), b.payload)
		rec.end(id)
		if err == nil && len(recs) != len(b.recs) {
			err = fmt.Errorf("%d of %d records", len(recs), len(b.recs))
		}
	} else {
		lines := bytes.Split(bytes.TrimSuffix(b.payload, []byte("\n")), []byte("\n"))
		id := rec.begin("tmio.json_decode", -1, op)
		for _, line := range lines {
			if _, err = tmio.DecodeStreamRecord(line); err != nil {
				break
			}
		}
		rec.end(id)
	}
	if err != nil {
		return fmt.Errorf("decode traced batch: %w", err)
	}
	m := g.mirror[b.app]
	id := rec.begin("region.add", -1, op)
	m.add(b.recs)
	rec.end(id)
	if detect {
		bursts := append([]region.Phase(nil), m.tPhases...)
		id = rec.begin("ftio.detect", -1, op)
		_, err = ftio.DetectPhases(bursts, ftioBins)
		rec.end(id)
	}
	return err
}

// appMirror replays an app's records into its own three incremental
// sweeps, converting them as the gateway does and compacting on the
// gateway's schedule, so region cost per record is measured apart from
// decoding, locking and queueing.
type appMirror struct {
	b, bl, t            *region.IncrementalSweep
	tPhases             []region.Phase
	lastTe, nextCompact des.Time
}

func newAppMirror() *appMirror {
	return &appMirror{
		b:  region.NewIncrementalSweep("B"),
		bl: region.NewIncrementalSweep("B_L"),
		t:  region.NewIncrementalSweep("T"),
	}
}

func (m *appMirror) add(recs []tmio.StreamRecord) {
	for _, rec := range recs {
		if ph := gateway.RecordPhase(rec); ph.End > ph.Start && m.b.Add(ph) {
			m.lastTe = max(m.lastTe, ph.End)
		}
		if ph, ok := gateway.RecordLimitPhase(rec); ok {
			m.bl.Add(ph)
		}
		if ph, ok := gateway.RecordThroughputPhase(rec); ok && m.t.Add(ph) {
			m.tPhases = append(m.tPhases, ph)
		}
	}
	cutoff := m.lastTe - des.Time(retention)
	if cutoff <= 0 || cutoff < m.nextCompact {
		return
	}
	m.b.Compact(cutoff)
	m.bl.Compact(cutoff)
	m.t.Compact(cutoff)
	k := 0
	for _, ph := range m.tPhases {
		if ph.End >= cutoff {
			m.tPhases[k] = ph
			k++
		}
	}
	m.tPhases = m.tPhases[:k]
	m.nextCompact = cutoff + des.Time(retention/4)
}

// runGateway measures gateway-stream. Set-up starts the gateway, dials
// both connections and streams warmBatches batches per app; each op is
// one batch, and every pollEvery-th op is followed by a scheduler poll.
func runGateway(cfg config) (*outcome, error) {
	o := &outcome{workUnit: "records"}
	var g *streamHarness
	for i := 0; i < setupRepeats; i++ {
		if g != nil {
			if err := g.close(); err != nil {
				return nil, fmt.Errorf("close set-up gateway: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if g, err = startStream(cfg.seed, cfg.traced); err != nil {
			return nil, fmt.Errorf("start gateway: %w", err)
		}
		for g.batches < warmBatches*streamApps && err == nil {
			var b *streamBatch
			if b, err = g.next(); err == nil {
				_, err = g.send(b, nil, -1)
			}
		}
		if err != nil {
			g.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	warm := g.batches

	// Enough batches that the polls alone reach minOps.
	err := measure(cfg.window, pollEvery*minOps, func(i int) error {
		b, err := g.next()
		if err != nil {
			return err
		}
		rec := cfg.tracer(i)
		traced := rec != nil
		el, err := g.send(b, rec, i)
		if err != nil {
			return err
		}
		if traced {
			o.traced = append(o.traced, el)
		} else {
			o.ops = append(o.ops, el)
			o.work += float64(len(b.recs))
		}
		if i%pollEvery == pollEvery-1 {
			q, err := g.poll(b.app, rec, i)
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("op %d: %v", i, err)
			}
			if !traced {
				o.queries = append(o.queries, q)
			}
		}
		if traced {
			return g.probe(b, rec, i, i%pollEvery == pollEvery-1)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errLost) {
		g.close()
		return nil, err
	}
	if err != nil {
		o.problem("%v", err)
	}
	if err := g.close(); err != nil {
		o.problem("shutdown: %v", err)
	}

	st := g.srv.Stats()
	var total int64
	for a := 0; a < streamApps; a++ {
		total += g.sent[a]
		info, ok := g.srv.AppInfo(appName(a))
		if !ok || info.Records != g.sent[a] {
			o.problem("%s: gateway holds %d records, %d sent", appName(a), info.Records, g.sent[a])
		}
		if math.Float64bits(info.RequiredBandwidth) != math.Float64bits(g.maxB[a]) {
			o.problem("%s: required bandwidth %v, region.MaxRequired over the sent phases %v",
				appName(a), info.RequiredBandwidth, g.maxB[a])
		}
	}
	lost := st.Dropped + st.DecodeErrors + st.Late
	o.attempted += total
	o.failed += lost
	if lost != 0 || st.Ingested != total {
		o.problem("gateway ingested %d of %d records: %d dropped, %d decode errors, %d late",
			st.Ingested, total, st.Dropped, st.DecodeErrors, st.Late)
	}
	o.notes = append(o.notes, fmt.Sprintf("gateway-stream: %d apps x %d ranks, %d records per op, retention %v, %d warm-up + %d timed batches, %d records sent",
		streamApps, streamRanks, batchRecords, retention, warm, g.batches-warm, total))

	if cfg.traced {
		gatewayLayers(o, cfg.rec, st, float64(st.Ingested-int64(warm*batchRecords))/float64(g.batches-warm))
	}
	return o, nil
}

// gatewayLayers derives the tmio, region, ftio and gateway metrics from
// the traced ops.
func gatewayLayers(o *outcome, rec *recorder, st gateway.Stats, perOp float64) {
	perRecord := func(name string, n int) float64 {
		var xs []float64
		for _, d := range rec.perOp(name) {
			xs = append(xs, float64(d.Nanoseconds())/float64(n))
		}
		return medianOf(xs)
	}
	o.layer("tmio.frame_decode_ns", perRecord("tmio.frame_decode", batchRecords), "ns")
	o.layer("tmio.json_decode_ns", perRecord("tmio.json_decode", batchRecords), "ns")
	o.layer("region.add_ns", perRecord("region.add", batchRecords), "ns")
	o.layer("ftio.detect_ms", rec.medianMs("ftio.detect"), "ms")
	o.layer("gateway.info_ms", rec.medianMs("gateway.info"), "ms")
	o.layer("gateway.series_ms", rec.medianMs("gateway.series"), "ms")
	o.layer("gateway.predict_ms", rec.medianMs("gateway.predict"), "ms")
	o.layer("gateway.scrape_ms", rec.medianMs("gateway.scrape"), "ms")
	o.layer("gateway.ingested", perOp, "count")
	o.layer("gateway.dropped", float64(st.Dropped), "count")
	o.layer("gateway.decode_errors", float64(st.DecodeErrors), "count")
	o.layer("gateway.late", float64(st.Late), "count")
	o.layer("trace.gateway_overhead_ms", medianOf(millis(o.traced))-medianOf(millis(o.ops)), "ms")
	if perOp != batchRecords {
		o.problem("gateway ingested %.2f records per op, want %d", perOp, batchRecords)
	}
}
