package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/tmio"
)

// TestFaultCoverIncremental pins the semantics the old per-query
// mergeSpans provided, now maintained incrementally at ingest via
// metrics.InsertInterval: overlapping spans merge, touching spans merge
// into one, and the cover stays sorted regardless of arrival order.
func TestFaultCoverIncremental(t *testing.T) {
	sec := func(s float64) des.Time { return des.Time(s * float64(des.Second)) }
	var cover []metrics.Interval
	for _, iv := range []metrics.Interval{
		{Start: sec(5), End: sec(6)},
		{Start: 0, End: sec(1)},
		{Start: sec(0.5), End: sec(2)}, // overlaps the second
		{Start: sec(2), End: sec(3)},   // touches: still one span
	} {
		cover = metrics.InsertInterval(cover, iv)
	}
	want := []metrics.Interval{{Start: 0, End: sec(3)}, {Start: sec(5), End: sec(6)}}
	if len(cover) != len(want) {
		t.Fatalf("merged %d spans, want %d: %+v", len(cover), len(want), cover)
	}
	for i := range want {
		if cover[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, cover[i], want[i])
		}
	}
	if metrics.InsertInterval(nil, metrics.Interval{}) != nil {
		t.Fatal("inserting an empty interval into nil must stay nil")
	}
}

// TestFaultAnnotationsSurface streams records carrying fault marks and
// retry counts into a live gateway and checks every query surface exposes
// them: Stats, AppInfo, the series endpoint, and /metrics.
func TestFaultAnnotationsSurface(t *testing.T) {
	s, addr, stop := startGateway(t, Config{})
	defer stop()

	sink, err := tmio.DialSink(addr, "faulty-app")
	if err != nil {
		t.Fatal(err)
	}
	recs := []tmio.StreamRecord{
		{V: tmio.StreamVersion, Rank: 0, Phase: 0, TsSec: 0, TeSec: 1, B: 5e6, Faulty: true, Retries: 3},
		{V: tmio.StreamVersion, Rank: 0, Phase: 1, TsSec: 1, TeSec: 2, B: 5e6},
		{V: tmio.StreamVersion, Rank: 0, Phase: 2, TsSec: 2.5, TeSec: 3, B: 5e6, Faulty: true, Retries: 1},
	}
	for _, rec := range recs {
		if err := sink.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "records ingested", func() bool { return s.Stats().Ingested == 3 })

	if got := s.Stats().Faulty; got != 2 {
		t.Fatalf("Stats().Faulty = %d, want 2", got)
	}
	info, ok := s.AppInfo("faulty-app")
	if !ok {
		t.Fatal("app not registered")
	}
	if info.FaultPhases != 2 || info.Retries != 4 {
		t.Fatalf("AppInfo fault phases/retries = %d/%d, want 2/4", info.FaultPhases, info.Retries)
	}
	series, ok := s.AppSeries("faulty-app")
	if !ok {
		t.Fatal("no series for app")
	}
	if len(series.Faults) != 2 || series.Retries != 4 {
		t.Fatalf("AppSeries faults/retries = %d/%d, want 2/4", len(series.Faults), series.Retries)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return string(body)
	}

	var decoded struct {
		Faults []struct {
			Ts float64 `json:"ts"`
			Te float64 `json:"te"`
		} `json:"faults"`
		Retries int64 `json:"retries"`
	}
	if err := json.Unmarshal([]byte(get("/apps/faulty-app/series")), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Faults) != 2 || decoded.Retries != 4 {
		t.Fatalf("series endpoint faults/retries = %d/%d, want 2/4", len(decoded.Faults), decoded.Retries)
	}
	if decoded.Faults[0].Ts != 0 || decoded.Faults[0].Te != 1 {
		t.Fatalf("first fault span = %+v, want [0,1]", decoded.Faults[0])
	}

	metricsBody := get("/metrics")
	for _, want := range []string{
		"iogateway_records_faulty_total 2",
		`iogateway_app_fault_phases_total{app="faulty-app"} 2`,
		`iogateway_app_retries_total{app="faulty-app"} 4`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}
