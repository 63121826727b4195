package tmio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
	"iobehind/internal/pfs"
	"iobehind/internal/region"
	"iobehind/internal/report"
)

// Report is the aggregated result of one traced run. Build it with
// Tracer.Report after the simulation has finished.
type Report struct {
	Ranks    int            `json:"ranks"`
	Strategy StrategyConfig `json:"strategy"`

	// Runtime is the wall span from the first rank start to the last rank
	// end, including the post-runtime overhead. AppTime excludes the
	// post-runtime overhead (the paper's "App" curve in Fig. 5).
	Runtime des.Duration `json:"runtime"`
	AppTime des.Duration `json:"app_time"`

	// TotalRankTime is Σ over ranks of their individual runtimes — the
	// denominator of the time-distribution percentages.
	TotalRankTime des.Duration `json:"total_rank_time"`

	// Aggregated time categories (Σ over ranks).
	PeriOverhead des.Duration    `json:"peri_overhead"`
	PostOverhead des.Duration    `json:"post_overhead"`
	SyncTime     [2]des.Duration `json:"sync_time"`     // by pfs.Class
	AsyncLost    [2]des.Duration `json:"async_lost"`    // wait-blocked
	AsyncExploit [2]des.Duration `json:"async_exploit"` // hidden background I/O
	ComputeFree  des.Duration    `json:"compute_free"`

	SyncOps  int `json:"sync_ops"`
	AsyncOps int `json:"async_ops"`

	// FirstLimitAt is when the fastest rank applied a limit for the first
	// time (the vertical purple line of Figs. 9, 10, 13, 14); zero when no
	// limit was ever applied.
	FirstLimitAt des.Time `json:"first_limit_at"`

	// RequiredBandwidth is max over regions of the B sweep — the minimal
	// application-level bandwidth that avoids all waiting.
	RequiredBandwidth float64 `json:"required_bandwidth"`

	// Rank-level phases feeding the application-level sweeps.
	BPhases  []region.Phase `json:"b_phases"`
	TPhases  []region.Phase `json:"-"`
	BLPhases []region.Phase `json:"-"`

	// TotalBytes moved per class through traced operations.
	TotalBytes [2]int64 `json:"total_bytes"`

	// Fault/resilience accounting. FaultPhases counts rank-phases measured
	// inside an injected fault window (their B was excluded from limiter
	// feedback); Retries and RetriesExhausted sum the agents' transient-
	// error retries and abandoned requests; FaultSpans carries the tainted
	// phases' windows for annotation (Value is the excluded B).
	FaultPhases      int            `json:"fault_phases,omitempty"`
	Retries          int            `json:"retries,omitempty"`
	RetriesExhausted int            `json:"retries_exhausted,omitempty"`
	FaultSpans       []region.Phase `json:"-"`
}

// Report aggregates the tracer's per-rank records. Call it after the
// engine has drained; phases still open are closed at each rank's end
// time.
func (t *Tracer) Report() *Report {
	rep := &Report{
		Ranks:    len(t.ranks),
		Strategy: t.strat,
	}
	var firstStart, lastEnd, lastAppEnd des.Time
	first := true
	rep.FirstLimitAt = 0

	for _, rt := range t.ranks {
		if len(rt.open) > 0 {
			end := rt.rank.Ended()
			if end == 0 {
				end = rt.rank.Now()
			}
			rt.closePhase(end, false)
		}

		start, end := rt.rank.Started(), rt.rank.Ended()
		runtime := end.Sub(start)
		rep.TotalRankTime += runtime
		if first || start < firstStart {
			firstStart = start
		}
		if end > lastEnd {
			lastEnd = end
		}
		if appEnd := end.Add(-rt.post); first || appEnd > lastAppEnd {
			lastAppEnd = appEnd
		}
		first = false

		rep.PeriOverhead += rt.peri
		rep.PostOverhead += rt.post
		for c := 0; c < 2; c++ {
			rep.SyncTime[c] += rt.syncTotal[c]
			rep.AsyncLost[c] += rt.waitTotal[c]
			rep.TotalBytes[c] += rt.syncBytes[c]
		}
		rep.SyncOps += rt.syncOps
		rep.AsyncOps += rt.asyncOps
		if rt.limitApplied && (rep.FirstLimitAt == 0 || rt.firstLimitAt < rep.FirstLimitAt) {
			rep.FirstLimitAt = rt.firstLimitAt
		}
		agent := t.sys.Agent(rt.rank.ID())
		rep.Retries += agent.Retries()
		rep.RetriesExhausted += agent.RetryExhausted()

		// Phases → region inputs; exploit from operation windows.
		for _, ph := range rt.phases {
			if ph.faulty {
				rep.FaultPhases++
				rep.FaultSpans = append(rep.FaultSpans, region.Phase{
					Rank: rt.rank.ID(), Index: ph.index,
					Start: ph.ts, End: ph.te, Value: ph.b,
				})
			}
			rep.BPhases = append(rep.BPhases, region.Phase{
				Rank: rt.rank.ID(), Index: ph.index,
				Start: ph.ts, End: ph.te, Value: ph.b,
			})
			if ph.limited {
				rep.BLPhases = append(rep.BLPhases, region.Phase{
					Rank: rt.rank.ID(), Index: ph.index,
					Start: ph.ts, End: ph.te, Value: ph.bl,
				})
			}
			var tStart, tEnd des.Time
			var bytes int64
			for i, req := range ph.requests {
				st := req.Stats()
				if i == 0 || st.Start < tStart {
					tStart = st.Start
				}
				if st.End > tEnd {
					tEnd = st.End
				}
				bytes += st.Bytes
				rep.TotalBytes[req.Class()] += st.Bytes

				op := metrics.Interval{Start: st.Start, End: st.End}
				lostOverlap := rt.waits.OverlapWith(op)
				exploit := op.Duration() - lostOverlap
				if exploit < 0 {
					exploit = 0
				}
				rep.AsyncExploit[req.Class()] += exploit
			}
			if tEnd > tStart {
				window := tEnd.Sub(tStart).Seconds()
				rep.TPhases = append(rep.TPhases, region.Phase{
					Rank: rt.rank.ID(), Index: ph.index,
					Start: tStart, End: tEnd,
					Value: float64(bytes) / window,
				})
			}
		}
	}

	rep.Runtime = lastEnd.Sub(firstStart)
	rep.AppTime = lastAppEnd.Sub(firstStart)
	rep.ComputeFree = rep.TotalRankTime - rep.PeriOverhead - rep.PostOverhead -
		rep.SyncTime[0] - rep.SyncTime[1] -
		rep.AsyncLost[0] - rep.AsyncLost[1] -
		rep.AsyncExploit[0] - rep.AsyncExploit[1]
	if rep.ComputeFree < 0 {
		rep.ComputeFree = 0
	}
	rep.RequiredBandwidth = region.MaxRequired(rep.BPhases)
	return rep
}

// BSeries returns the application-level required-bandwidth step series
// (Eq. 3 sweep over the rank phases).
func (r *Report) BSeries() *metrics.Series { return region.Sweep("B", r.BPhases) }

// TSeries returns the application-level throughput step series.
func (r *Report) TSeries() *metrics.Series { return region.Sweep("T", r.TPhases) }

// BLSeries returns the application-level applied-limit step series.
func (r *Report) BLSeries() *metrics.Series { return region.Sweep("B_L", r.BLPhases) }

// Distribution is the run's time breakdown as percentages of
// TotalRankTime, the categories of the paper's Figs. 6, 7 and 11.
type Distribution struct {
	SyncWrite         float64 `json:"sync_write"`
	SyncRead          float64 `json:"sync_read"`
	AsyncWriteLost    float64 `json:"async_write_lost"`
	AsyncReadLost     float64 `json:"async_read_lost"`
	AsyncWriteExploit float64 `json:"async_write_exploit"`
	AsyncReadExploit  float64 `json:"async_read_exploit"`
	OverheadPeri      float64 `json:"overhead_peri"`
	OverheadPost      float64 `json:"overhead_post"`
	ComputeFree       float64 `json:"compute_free"`
}

// Distribution computes the percentage breakdown.
func (r *Report) Distribution() Distribution {
	total := r.TotalRankTime.Seconds()
	if total <= 0 {
		return Distribution{}
	}
	pct := func(d des.Duration) float64 { return 100 * d.Seconds() / total }
	return Distribution{
		SyncWrite:         pct(r.SyncTime[pfs.Write]),
		SyncRead:          pct(r.SyncTime[pfs.Read]),
		AsyncWriteLost:    pct(r.AsyncLost[pfs.Write]),
		AsyncReadLost:     pct(r.AsyncLost[pfs.Read]),
		AsyncWriteExploit: pct(r.AsyncExploit[pfs.Write]),
		AsyncReadExploit:  pct(r.AsyncExploit[pfs.Read]),
		OverheadPeri:      pct(r.PeriOverhead),
		OverheadPost:      pct(r.PostOverhead),
		ComputeFree:       pct(r.ComputeFree),
	}
}

// VisibleIO is the paper's "visible I/O": synchronous I/O plus the time
// spent blocked in asynchronous waits, as a percentage of TotalRankTime.
func (d Distribution) VisibleIO() float64 {
	return d.SyncWrite + d.SyncRead + d.AsyncWriteLost + d.AsyncReadLost
}

// ExploitTotal is the combined hidden (exploited) asynchronous I/O share.
func (d Distribution) ExploitTotal() float64 {
	return d.AsyncWriteExploit + d.AsyncReadExploit
}

// OverheadShare returns the tracer's total overhead as a fraction of the
// runtime (peri + post), in percent.
func (r *Report) OverheadShare() float64 {
	total := r.TotalRankTime.Seconds()
	if total <= 0 {
		return 0
	}
	return 100 * (r.PeriOverhead.Seconds() + r.PostOverhead.Seconds()) / total
}

// ReportFile is TMIO's result file: the report's accounting and B phases,
// its time distribution, and the three swept series with integer-ns
// points. Report.WriteJSON writes it and ReadJSON decodes it bit for bit,
// so a saved run prints (WriteText) exactly what the live one does. The
// file keeps no T or B_L phases: a decoded run's series are B, T and BL,
// not the embedded report's sweeps.
type ReportFile struct {
	Report
	Distribution Distribution   `json:"distribution"`
	B            metrics.Series `json:"b_series"`
	T            metrics.Series `json:"t_series"`
	BL           metrics.Series `json:"bl_series"`
}

// File sweeps the report's series into its result-file form.
func (r *Report) File() *ReportFile {
	return &ReportFile{
		Report:       *r,
		Distribution: r.Distribution(),
		B:            *r.BSeries(),
		T:            *r.TSeries(),
		BL:           *r.BLSeries(),
	}
}

// WriteJSON writes the report's result file as one line of compact
// JSON, the stand-in for TMIO's result file.
func (r *Report) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.File())
}

// ReadJSON decodes a result file written by WriteJSON.
func ReadJSON(rd io.Reader) (*ReportFile, error) {
	var f ReportFile
	if err := json.NewDecoder(rd).Decode(&f); err != nil {
		return nil, fmt.Errorf("tmio: decode report file: %w", err)
	}
	return &f, nil
}

// WriteText prints the run as tables: the summary titled with the ranks
// and the strategy, the time distribution, and the peaks of T, B and B_L
// with sparklines over the runtime.
func (f *ReportFile) WriteText(w io.Writer) error {
	t := report.NewTable(fmt.Sprintf("traced run: %d ranks, strategy %s", f.Ranks, f.Strategy.Label()),
		"metric", "value")
	t.AddRow("runtime", report.Seconds(f.Runtime))
	t.AddRow("app time", report.Seconds(f.AppTime))
	t.AddRow("required bandwidth B", report.Rate(f.RequiredBandwidth))
	t.AddRow("peri / post overhead", report.Seconds(f.PeriOverhead)+" / "+report.Seconds(f.PostOverhead))
	t.AddRow("tracing overhead", report.Pct(f.OverheadShare()))
	t.AddRow("async / sync ops", fmt.Sprintf("%d / %d", f.AsyncOps, f.SyncOps))
	t.AddRow("bytes written / read",
		report.Bytes(f.TotalBytes[pfs.Write])+" / "+report.Bytes(f.TotalBytes[pfs.Read]))
	if f.FirstLimitAt != 0 {
		t.AddRow("limit first applied", report.Seconds(des.Duration(f.FirstLimitAt)))
	}

	d := f.Distribution
	dt := report.NewTable("time distribution (percent of total rank time)", "category", "share")
	dt.AddRow("sync write", report.Pct(d.SyncWrite))
	dt.AddRow("sync read", report.Pct(d.SyncRead))
	dt.AddRow("async write lost", report.Pct(d.AsyncWriteLost))
	dt.AddRow("async read lost", report.Pct(d.AsyncReadLost))
	dt.AddRow("async write exploit", report.Pct(d.AsyncWriteExploit))
	dt.AddRow("async read exploit", report.Pct(d.AsyncReadExploit))
	dt.AddRow("overhead (peri)", report.Pct(d.OverheadPeri))
	dt.AddRow("overhead (post)", report.Pct(d.OverheadPost))
	dt.AddRow("compute (I/O free)", report.Pct(d.ComputeFree))
	dt.AddRow("visible I/O", report.Pct(d.VisibleIO()))
	dt.AddRow("hidden I/O (exploit)", report.Pct(d.ExploitTotal()))

	var b strings.Builder
	b.WriteString(t.Render())
	b.WriteString(dt.Render())
	end := des.Time(f.Runtime)
	for _, s := range []*metrics.Series{&f.T, &f.B, &f.BL} {
		if len(s.Points) > 0 {
			fmt.Fprintf(&b, "%-4s peak %-12s |%s|\n", s.Name, report.Rate(s.Max()), report.Sparkline(s, 0, end, 60))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Speedup returns how much faster this run's AppTime is than other's, in
// percent (positive = this run is faster).
func (r *Report) Speedup(other *Report) float64 {
	a, b := r.AppTime.Seconds(), other.AppTime.Seconds()
	if a <= 0 || b <= 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return 100 * (b - a) / b
}

// RankStats is one rank's share of the run, for imbalance analysis.
type RankStats struct {
	Rank       int          `json:"rank"`
	Runtime    des.Duration `json:"runtime"`
	Phases     int          `json:"phases"`
	LastB      float64      `json:"last_b"`
	WaitTime   des.Duration `json:"wait_time"`
	SyncTime   des.Duration `json:"sync_time"`
	AsyncBytes int64        `json:"async_bytes"`
	Limit      float64      `json:"limit"` // applied write limit; Inf if none
}

// RankBreakdown returns per-rank statistics in rank order, computed from
// the tracer's live records (call after the run).
func (t *Tracer) RankBreakdown() []RankStats {
	out := make([]RankStats, 0, len(t.ranks))
	for i, rt := range t.ranks {
		st := RankStats{
			Rank:     rt.rank.ID(),
			Runtime:  rt.rank.Ended().Sub(rt.rank.Started()),
			Phases:   len(rt.phases),
			LastB:    t.RequiredBandwidth(i),
			WaitTime: rt.waitTotal[0] + rt.waitTotal[1],
			SyncTime: rt.syncTotal[0] + rt.syncTotal[1],
			Limit:    t.Limit(i),
		}
		for _, ph := range rt.phases {
			for _, req := range ph.requests {
				st.AsyncBytes += req.Bytes()
			}
		}
		out = append(out, st)
	}
	return out
}
