package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
)

// Handler returns the gateway's HTTP query surface:
//
//	GET /healthz              liveness probe
//	GET /metrics              Prometheus text exposition
//	GET /apps                 JSON list of applications
//	GET /apps/{id}/series     JSON B/B_L/T step series
//	GET /apps/{id}/predict    JSON next-burst forecast (?now=<seconds>)
//
// All times cross the wire as seconds of virtual time, matching the
// stream protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	mux.HandleFunc("GET /apps", s.serveApps)
	mux.HandleFunc("GET /apps/{id}/series", s.serveSeries)
	mux.HandleFunc("GET /apps/{id}/predict", s.servePredict)
	return mux
}

type appJSON struct {
	ID                string  `json:"id"`
	Records           int64   `json:"records"`
	Version           int     `json:"v"`
	RequiredBandwidth float64 `json:"required_bandwidth"`
	LastActivitySec   float64 `json:"last_activity_s"`
}

func appToJSON(info AppInfo) appJSON {
	return appJSON{
		ID:                info.ID,
		Records:           info.Records,
		Version:           info.Version,
		RequiredBandwidth: info.RequiredBandwidth,
		LastActivitySec:   info.LastActivity.Seconds(),
	}
}

type pointJSON struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

type seriesJSON struct {
	ID                string      `json:"id"`
	RequiredBandwidth float64     `json:"required_bandwidth"`
	B                 []pointJSON `json:"b"`
	BL                []pointJSON `json:"bl"`
	T                 []pointJSON `json:"t"`
	// Faults annotates the merged windows during which B was measured
	// against degraded hardware; Retries sums the app's transient-error
	// retries. Both absent when no fault was ever streamed.
	Faults  []spanJSON `json:"faults,omitempty"`
	Retries int64      `json:"retries,omitempty"`
}

type spanJSON struct {
	Ts float64 `json:"ts"`
	Te float64 `json:"te"`
}

func pointsToJSON(series *metrics.Series) []pointJSON {
	pts := make([]pointJSON, 0, len(series.Points))
	for _, p := range series.Points {
		pts = append(pts, pointJSON{T: p.T.Seconds(), V: p.V})
	}
	return pts
}

// PredictJSON is the wire form of a Prediction (also decoded by the
// streaming example, hence exported).
type PredictJSON struct {
	ID           string  `json:"id"`
	OK           bool    `json:"ok"`
	PeriodSec    float64 `json:"period_s"`
	FrequencyHz  float64 `json:"frequency_hz"`
	Confidence   float64 `json:"confidence"`
	BurstLenSec  float64 `json:"burst_len_s"`
	LastBurstSec float64 `json:"last_burst_s"`
	NextBurstSec float64 `json:"next_burst_s"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) serveApps(w http.ResponseWriter, r *http.Request) {
	infos := s.Apps()
	out := make([]appJSON, 0, len(infos))
	for _, info := range infos {
		out = append(out, appToJSON(info))
	}
	s.writeJSON(w, out)
}

func (s *Server) serveSeries(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	series, ok := s.AppSeries(id)
	if !ok {
		http.Error(w, "unknown app", http.StatusNotFound)
		return
	}
	out := seriesJSON{
		ID:                series.ID,
		RequiredBandwidth: series.B.Max(),
		B:                 pointsToJSON(series.B),
		BL:                pointsToJSON(series.BL),
		T:                 pointsToJSON(series.T),
		Retries:           series.Retries,
	}
	for _, iv := range series.Faults {
		out.Faults = append(out.Faults, spanJSON{
			Ts: iv.Start.Seconds(), Te: iv.End.Seconds(),
		})
	}
	s.writeJSON(w, out)
}

func (s *Server) servePredict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, known := s.reg.get(id); !known {
		http.Error(w, "unknown app", http.StatusNotFound)
		return
	}
	var now des.Time
	if q := r.URL.Query().Get("now"); q != "" {
		sec, err := strconv.ParseFloat(q, 64)
		if err != nil {
			http.Error(w, "bad now parameter", http.StatusBadRequest)
			return
		}
		now = timeOf(sec)
	}
	p, ok := s.Predict(id, now)
	if !ok {
		// Known app, no confident forecast yet: a valid, useful answer.
		s.writeJSON(w, PredictJSON{ID: id, OK: false})
		return
	}
	s.writeJSON(w, PredictJSON{
		ID:           p.App,
		OK:           true,
		PeriodSec:    p.Period.Seconds(),
		FrequencyHz:  p.Frequency,
		Confidence:   p.Confidence,
		BurstLenSec:  p.BurstLen.Seconds(),
		LastBurstSec: p.LastBurst.Seconds(),
		NextBurstSec: p.Next.Seconds(),
	})
}

// errWriter wraps the response writer, latches the first write error,
// and turns later writes into no-ops: once the scraper hangs up there is
// no point formatting the rest of the exposition.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// serveMetrics writes the Prometheus text exposition format (0.0.4) with
// gateway-level counters and per-app gauges, streaming straight to the
// response (the old strings.Builder staging double-copied every scrape).
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()
	ew := &errWriter{w: w}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("iogateway_connections_total", "Ingest connections ever accepted.", st.ConnsTotal)
	gauge("iogateway_connections_active", "Ingest connections currently open.", st.ConnsActive)
	counter("iogateway_records_ingested_total", "Stream records aggregated.", st.Ingested)
	counter("iogateway_records_dropped_total", "Stream records discarded by queue backpressure.", st.Dropped)
	counter("iogateway_decode_errors_total", "Stream lines that failed to parse.", st.DecodeErrors)
	counter("iogateway_records_faulty_total", "Stream records marked as measured inside an injected fault window.", st.Faulty)
	counter("iogateway_records_late_total", "Stream records rejected as older than the retention horizon.", st.Late)
	gauge("iogateway_apps", "Distinct applications seen.", int64(st.Apps))

	infos := s.Apps()
	if len(infos) > 0 {
		fmt.Fprintf(ew, "# HELP iogateway_app_records_total Records ingested per application.\n# TYPE iogateway_app_records_total counter\n")
		for _, info := range infos {
			fmt.Fprintf(ew, "iogateway_app_records_total{app=%q} %d\n", info.ID, info.Records)
		}
		fmt.Fprintf(ew, "# HELP iogateway_app_required_bandwidth_bytes_per_second Current application-level required bandwidth (max of the online Eq. 3 sweep).\n# TYPE iogateway_app_required_bandwidth_bytes_per_second gauge\n")
		for _, info := range infos {
			fmt.Fprintf(ew, "iogateway_app_required_bandwidth_bytes_per_second{app=%q} %g\n", info.ID, info.RequiredBandwidth)
		}
		fmt.Fprintf(ew, "# HELP iogateway_app_last_activity_seconds End of the latest phase window seen, in virtual seconds.\n# TYPE iogateway_app_last_activity_seconds gauge\n")
		for _, info := range infos {
			fmt.Fprintf(ew, "iogateway_app_last_activity_seconds{app=%q} %g\n", info.ID, info.LastActivity.Seconds())
		}
		fmt.Fprintf(ew, "# HELP iogateway_app_fault_phases_total Phases per application measured inside an injected fault window.\n# TYPE iogateway_app_fault_phases_total counter\n")
		for _, info := range infos {
			fmt.Fprintf(ew, "iogateway_app_fault_phases_total{app=%q} %d\n", info.ID, info.FaultPhases)
		}
		fmt.Fprintf(ew, "# HELP iogateway_app_retries_total Transient-error retries per application.\n# TYPE iogateway_app_retries_total counter\n")
		for _, info := range infos {
			fmt.Fprintf(ew, "iogateway_app_retries_total{app=%q} %d\n", info.ID, info.Retries)
		}
	}
	if ew.err != nil {
		s.logf("gateway: /metrics write: %v", ew.err)
	}
}

// writeJSON encodes v to the response, reporting (rather than silently
// swallowing) an encode or write failure. A failure here is almost
// always the client hanging up mid-body; the status line is already
// gone, so logging is all that remains.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.logf("gateway: response encode: %v", err)
	}
}
