package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
)

func streamRec(app string, j int, start, dur, b float64) tmio.StreamRecord {
	return tmio.StreamRecord{
		V: tmio.StreamVersion, App: app, Rank: j % 4, Phase: j,
		TsSec: start, TeSec: start + dur, B: b,
	}
}

// TestIngestCreateFastPath pins the read-locked lookup: after an app's
// first record, ingest must never take the shard write lock again — one
// slow-path pass per app, no matter how many records follow, including
// records racing in from many goroutines.
func TestIngestCreateFastPath(t *testing.T) {
	s := New(Config{})
	for j := 0; j < 500; j++ {
		s.reg.ingest(streamRec("one-app", j, float64(j), 0.5, 1e6), "conn-1")
	}
	if got := s.reg.slow.Load(); got != 1 {
		t.Fatalf("slow-path passes after 500 records of one app = %d, want 1", got)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s.reg.ingest(streamRec("racy-app", j, float64(j), 0.5, 1e6), "conn-2")
			}
		}(g)
	}
	wg.Wait()
	// The racy creation may cost a few extra write-locked passes (losers
	// of the create race re-check under the lock), but steady state must
	// be pure fast path: far fewer slow passes than records.
	if got := s.reg.slow.Load(); got > 1+8 {
		t.Fatalf("slow-path passes = %d after concurrent ingest, want <= 9", got)
	}
	info, ok := s.AppInfo("racy-app")
	if !ok || info.Records != 8*200 {
		t.Fatalf("racy-app records = %+v (ok=%v), want 1600", info, ok)
	}
}

// TestShardedRegistrySpreadsApps sanity-checks the striping: distinct
// apps land in more than one shard, and every app stays reachable.
func TestShardedRegistrySpreadsApps(t *testing.T) {
	s := New(Config{})
	used := make(map[*appShard]bool)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("app-%d", i)
		s.reg.ingest(streamRec(id, 0, 0, 1, 1e6), "conn-1")
		used[s.reg.shardOf(id)] = true
		if _, ok := s.reg.get(id); !ok {
			t.Fatalf("app %s unreachable after ingest", id)
		}
	}
	if len(used) < appShards/2 {
		t.Fatalf("200 apps hashed into only %d/%d shards", len(used), appShards)
	}
	if got := s.reg.len(); got != 200 {
		t.Fatalf("registry len = %d, want 200", got)
	}
	if got := len(s.reg.ids()); got != 200 {
		t.Fatalf("ids() returned %d apps, want 200", got)
	}
}

// TestRetentionBoundsMemory streams far more history than the retention
// window holds and checks (a) the sweep's live footprint stays bounded
// by the window rather than the stream length, (b) Max still equals the
// full-history offline sweep bit-for-bit, and (c) a record arriving
// behind the horizon is rejected and surfaces in Stats.Late and
// /metrics.
func TestRetentionBoundsMemory(t *testing.T) {
	s := New(Config{RetentionWindow: des.DurationOf(10)}) // 10 virtual seconds
	var all []region.Phase
	const n = 5000
	for j := 0; j < n; j++ {
		rec := streamRec("ret", j, float64(j)*0.1, 0.05, float64(1+j%7)*1e6)
		s.reg.ingest(rec, "conn-1")
		all = append(all, RecordPhase(rec))
	}
	st, ok := s.reg.get("ret")
	if !ok {
		t.Fatal("app missing")
	}
	boundaries, _ := st.b.Size()
	// The 10 s window holds ~100 live phases (200 boundaries); chunk
	// granularity and the window/4 compaction hysteresis add slack, but
	// the footprint must be far below the 2*5000 un-compacted boundaries.
	if boundaries > 2000 {
		t.Fatalf("live boundaries = %d, want bounded by the window (<< %d)", boundaries, 2*n)
	}
	if _, compacted := st.b.Horizon(); !compacted {
		t.Fatal("retention never compacted despite 500 s of history")
	}
	off := region.Sweep("B", all)
	if got := st.b.Max(); got != off.Max() {
		t.Fatalf("Max after retention = %v, full-history max %v (must be exact)", got, off.Max())
	}

	// A record behind the horizon: rejected, counted, app counters still
	// account for it as received.
	s.reg.ingest(streamRec("ret", n, 0.2, 0.05, 1e6), "conn-1")
	if got := s.Stats().Late; got != 1 {
		t.Fatalf("Stats().Late = %d, want 1", got)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	nr, _ := resp.Body.Read(buf)
	if want := "iogateway_records_late_total 1"; !containsLine(string(buf[:nr]), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

func containsLine(body, want string) bool {
	for len(body) > 0 {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		if body[:i] == want {
			return true
		}
		if i == len(body) {
			break
		}
		body = body[i+1:]
	}
	return false
}

// TestConcurrentScrapeDuringIngest hammers the query surface (AppInfo,
// AppSeries, Predict, /metrics) from readers while writers ingest — the
// scrapes-do-not-stall-ingest contract, exercised under -race in the CI
// sweep — then verifies the final online state equals the offline sweep
// over everything ingested, point for point.
func TestConcurrentScrapeDuringIngest(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const apps, perApp = 4, 400
	var wg sync.WaitGroup
	collected := make([][]region.Phase, apps)
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			id := fmt.Sprintf("load-%d", a)
			for j := 0; j < perApp; j++ {
				rec := streamRec(id, j, float64(j)*0.05, 0.04, float64(1+a)*1e6)
				collected[a] = append(collected[a], RecordPhase(rec))
				s.reg.ingest(rec, "conn-load")
			}
		}(a)
	}
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				id := fmt.Sprintf("load-%d", g%apps)
				s.AppInfo(id)
				s.AppSeries(id)
				s.Predict(id, 0)
				if g == 0 {
					resp, err := http.Get(srv.URL + "/metrics")
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopReads)
	readers.Wait()

	for a := 0; a < apps; a++ {
		id := fmt.Sprintf("load-%d", a)
		got, ok := s.AppSeries(id)
		if !ok {
			t.Fatalf("no series for %s", id)
		}
		want := region.Sweep("B", collected[a])
		if err := sameSeries(got.B, want); err != nil {
			t.Fatalf("%s online B diverged from offline after concurrent load: %v", id, err)
		}
	}
}

// errorWriter fails after n bytes, standing in for a scraper that hangs
// up mid-response.
type errorWriter struct {
	n       int
	written int
}

func (e *errorWriter) Write(p []byte) (int, error) {
	if e.written+len(p) > e.n {
		return 0, errors.New("peer gone")
	}
	e.written += len(p)
	return len(p), nil
}

// TestErrWriterLatches pins the streaming exposition's error handling:
// the first write failure is latched and every later write is a cheap
// no-op returning the same error.
func TestErrWriterLatches(t *testing.T) {
	ew := &errWriter{w: &errorWriter{n: 10}}
	if _, err := ew.Write([]byte("12345")); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	if _, err := ew.Write([]byte("6789012345")); err == nil {
		t.Fatal("overflowing write did not fail")
	}
	if _, err := ew.Write([]byte("x")); err == nil || ew.err == nil {
		t.Fatal("error did not latch")
	}
}
