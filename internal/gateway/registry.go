package gateway

import (
	"sort"
	"sync"
	"sync/atomic"

	"iobehind/internal/des"
	"iobehind/internal/ftio"
	"iobehind/internal/metrics"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
)

// timeOf converts a streamed seconds value back into virtual time.
// Negative inputs clamp to zero (virtual time starts at 0).
func timeOf(sec float64) des.Time { return des.Time(des.DurationOf(sec)) }

// RecordPhase converts a streamed record into its required-bandwidth
// region phase — the exact input the offline report feeds region.Sweep,
// so online and offline aggregation over the same records agree
// point-for-point.
func RecordPhase(rec tmio.StreamRecord) region.Phase {
	return region.Phase{
		Rank:  rec.Rank,
		Index: rec.Phase,
		Start: timeOf(rec.TsSec),
		End:   timeOf(rec.TeSec),
		Value: rec.B,
	}
}

// RecordLimitPhase converts a record's applied-limit measurement (B_L).
// ok is false when the phase carried no limit.
func RecordLimitPhase(rec tmio.StreamRecord) (region.Phase, bool) {
	if rec.BL <= 0 {
		return region.Phase{}, false
	}
	ph := RecordPhase(rec)
	ph.Value = rec.BL
	return ph, true
}

// RecordThroughputPhase converts a record's transfer window (T). ok is
// false when the record carries no completed-transfer window.
func RecordThroughputPhase(rec tmio.StreamRecord) (region.Phase, bool) {
	if rec.T <= 0 || rec.TteSec <= rec.TtsSec {
		return region.Phase{}, false
	}
	return region.Phase{
		Rank:  rec.Rank,
		Index: rec.Phase,
		Start: timeOf(rec.TtsSec),
		End:   timeOf(rec.TteSec),
		Value: rec.T,
	}, true
}

// appState is one application's live aggregation.
//
// The lock is an RWMutex because every query is a pure read: the
// incremental sweeps are left fully consistent by each Add, so AppInfo,
// AppSeries, /metrics scrapes, and Predict's signal snapshot all run
// under RLock and never stall ingest behind a slow reader — only the
// per-connection consumer goroutines take the write side.
//
// Lock hierarchy: a shard lock (registry lookup) is never held while an
// appState lock is taken, and appState locks never nest; ingest and
// queries each acquire at most one lock at a time beyond the lookup.
type appState struct {
	mu      sync.RWMutex
	id      string
	b       *region.IncrementalSweep
	bl      *region.IncrementalSweep
	t       *region.IncrementalSweep
	bPhases []region.Phase // activity signal for FTIO detection
	tPhases []region.Phase // actual burst windows
	records int64
	version int
	lastTe  des.Time

	// Fault annotations: the merged cover of phases marked Faulty by the
	// tracer, maintained incrementally as spans arrive (sorted, disjoint,
	// touching spans merged), and the summed retry count.
	faultPhases int64
	retries     int64
	faultCover  []metrics.Interval

	// nextCompact is the lastTe threshold at which retention runs again;
	// the window/4 hysteresis keeps compaction amortized instead of
	// scanning chunks on every record.
	nextCompact des.Time
}

// appShards fixes the registry's stripe count. Power of two so the hash
// reduces with a mask; 64 stripes keep cross-app ingest contention
// negligible at any realistic core count.
const appShards = 64

type appShard struct {
	mu   sync.RWMutex
	apps map[string]*appState
}

// registry demultiplexes records into per-app state. The app map is
// striped appShards ways by FNV-1a of the app ID, and each stripe's
// lookup takes only a read lock on the steady-state path — creation
// (the write lock) happens once per app per stripe, counted in slow so
// the fast path is pinned by its own test.
type registry struct {
	shards [appShards]appShard

	// window > 0 bounds each app's retained history in virtual time.
	window des.Duration

	// slow counts write-locked getOrCreate passes (app creations, plus
	// the rare lost race); late counts records rejected because they
	// arrived behind an app's retention horizon.
	slow atomic.Int64
	late atomic.Int64
}

func (r *registry) init(window des.Duration) {
	for i := range r.shards {
		r.shards[i].apps = make(map[string]*appState)
	}
	r.window = window
}

// shardOf hashes the app ID with inline FNV-1a (allocation-free, unlike
// hash/fnv's boxed hasher) and reduces by mask.
func (r *registry) shardOf(id string) *appShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &r.shards[h&(appShards-1)]
}

func (r *registry) len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.apps)
		sh.mu.RUnlock()
	}
	return n
}

func (r *registry) get(id string) (*appState, bool) {
	sh := r.shardOf(id)
	sh.mu.RLock()
	st, ok := sh.apps[id]
	sh.mu.RUnlock()
	return st, ok
}

// getOrCreate resolves the app's state with a read-locked fast path:
// after the first record of an app, every subsequent lookup is a shared
// lock and one map read. Only a miss falls through to the write lock,
// which re-checks under exclusion before creating.
func (r *registry) getOrCreate(id string) *appState {
	sh := r.shardOf(id)
	sh.mu.RLock()
	st, ok := sh.apps[id]
	sh.mu.RUnlock()
	if ok {
		return st
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r.slow.Add(1)
	if st, ok := sh.apps[id]; ok {
		return st
	}
	st = &appState{
		id: id,
		b:  region.NewIncrementalSweep("B"),
		bl: region.NewIncrementalSweep("B_L"),
		t:  region.NewIncrementalSweep("T"),
	}
	sh.apps[id] = st
	return st
}

func (r *registry) ids() []string {
	var ids []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id := range sh.apps {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// ingest demultiplexes one record (by its App field, falling back to the
// connection identity) and feeds the app's online sweeps. The shard lock
// is released before the app lock is taken (lock hierarchy: never both).
func (r *registry) ingest(rec tmio.StreamRecord, fallbackID string) {
	id := rec.App
	if id == "" {
		id = fallbackID
	}
	st := r.getOrCreate(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.records++
	if rec.V > st.version {
		st.version = rec.V
	}
	if rec.Faulty {
		st.faultPhases++
	}
	st.retries += int64(rec.Retries)
	late := false
	ph := RecordPhase(rec)
	if ph.End > ph.Start {
		if st.b.Add(ph) {
			st.bPhases = append(st.bPhases, ph)
			if rec.Faulty {
				st.faultCover = metrics.InsertInterval(st.faultCover,
					metrics.Interval{Start: ph.Start, End: ph.End})
			}
			if ph.End > st.lastTe {
				st.lastTe = ph.End
			}
		} else {
			late = true
		}
	}
	if blPh, ok := RecordLimitPhase(rec); ok && !st.bl.Add(blPh) {
		late = true
	}
	if tPh, ok := RecordThroughputPhase(rec); ok {
		if st.t.Add(tPh) {
			st.tPhases = append(st.tPhases, tPh)
		} else {
			late = true
		}
	}
	if late {
		r.late.Add(1)
	}
	r.maybeCompact(st)
}

// maybeCompact enforces the retention horizon: once the app's activity
// frontier has moved window past the previous compaction point, history
// older than (frontier − window) is folded into each sweep's fixed
// summary, and the FTIO signal slices and fault cover are pruned to the
// same horizon. Runs under the app write lock held by ingest.
func (r *registry) maybeCompact(st *appState) {
	if r.window <= 0 {
		return
	}
	cutoff := st.lastTe - des.Time(r.window)
	if cutoff <= 0 || cutoff < st.nextCompact {
		return
	}
	st.b.Compact(cutoff)
	st.bl.Compact(cutoff)
	st.t.Compact(cutoff)
	st.bPhases = prunePhases(st.bPhases, cutoff)
	st.tPhases = prunePhases(st.tPhases, cutoff)
	st.faultCover = pruneCover(st.faultCover, cutoff)
	st.nextCompact = cutoff + des.Time(r.window/4)
}

// prunePhases filters in place, keeping phases that end at or after the
// cutoff. The backing array is reused, so steady state allocates nothing
// and the high-water capacity is bounded by the window's occupancy.
func prunePhases(phs []region.Phase, cutoff des.Time) []region.Phase {
	k := 0
	for _, ph := range phs {
		if ph.End >= cutoff {
			phs[k] = ph
			k++
		}
	}
	return phs[:k]
}

// pruneCover drops fault spans that ended before the cutoff, clipping a
// span that straddles it.
func pruneCover(cover []metrics.Interval, cutoff des.Time) []metrics.Interval {
	k := 0
	for _, iv := range cover {
		if iv.End < cutoff {
			continue
		}
		if iv.Start < cutoff {
			iv.Start = cutoff
		}
		cover[k] = iv
		k++
	}
	return cover[:k]
}

// AppInfo summarizes one application's live state.
type AppInfo struct {
	ID string
	// Records ingested so far.
	Records int64
	// Version is the highest schema version seen from this app.
	Version int
	// RequiredBandwidth is the current max of the online B sweep.
	RequiredBandwidth float64
	// LastActivity is the end of the latest phase window seen.
	LastActivity des.Time
	// FaultPhases counts records marked as measured inside a fault window;
	// Retries sums their transient-error retry counts.
	FaultPhases int64
	Retries     int64
}

// Apps lists the applications seen so far, sorted by ID.
func (s *Server) Apps() []AppInfo {
	ids := s.reg.ids()
	infos := make([]AppInfo, 0, len(ids))
	for _, id := range ids {
		if info, ok := s.AppInfo(id); ok {
			infos = append(infos, info)
		}
	}
	return infos
}

// AppInfo returns one application's summary. A pure read: the max query
// is O(1) against the incremental sweep's maintained aggregate, under a
// shared lock that never blocks other readers.
func (s *Server) AppInfo(id string) (AppInfo, bool) {
	st, ok := s.reg.get(id)
	if !ok {
		return AppInfo{}, false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return AppInfo{
		ID:                st.id,
		Records:           st.records,
		Version:           st.version,
		RequiredBandwidth: st.b.Max(),
		LastActivity:      st.lastTe,
		FaultPhases:       st.faultPhases,
		Retries:           st.retries,
	}, true
}

// AppSeries is a snapshot of one application's online step series.
type AppSeries struct {
	ID string
	// B is the Eq. 3 required-bandwidth sweep, B_L the applied-limit
	// sweep, T the achieved-throughput sweep — the same three series the
	// offline report derives, available mid-run.
	B, BL, T *metrics.Series
	// Faults is the union of the faulty phases' windows (sorted,
	// overlapping spans merged): the intervals over which B was measured
	// against degraded hardware and excluded from limiter feedback.
	Faults []metrics.Interval
	// Retries sums the app's transient-error retries streamed so far.
	Retries int64
}

// AppSeries snapshots the application's B/B_L/T series. Later ingests do
// not mutate the returned series. The fault cover is already merged
// incrementally at ingest, so the snapshot is a copy, not a sort.
func (s *Server) AppSeries(id string) (AppSeries, bool) {
	st, ok := s.reg.get(id)
	if !ok {
		return AppSeries{}, false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return AppSeries{
		ID:      st.id,
		B:       st.b.Series(),
		BL:      st.bl.Series(),
		T:       st.t.Series(),
		Faults:  append([]metrics.Interval(nil), st.faultCover...),
		Retries: st.retries,
	}, true
}

// Prediction is a next-burst forecast for one application, derived from
// FTIO period detection over the streamed phases.
type Prediction struct {
	App        string
	Period     des.Duration
	Frequency  float64
	Confidence float64
	// BurstLen is the mean transfer-window length (falling back to the
	// mean phase window when no transfer windows were streamed).
	BurstLen des.Duration
	// LastBurst is the start of the most recent observed burst; Next is
	// the first predicted burst strictly after the query time.
	LastBurst des.Time
	Next      des.Time
}

// Predict runs FTIO period detection over everything streamed for the
// app so far and forecasts the first burst after now (now <= 0 means
// "the app's latest activity"). ok is false while the app is unknown,
// has too little history, or shows no confident periodicity.
//
// The burst windows are copied out under the read lock and the O(n) DFT
// runs on the copy: a forecast query never holds the app lock during
// analysis, so it cannot stall ingest or other readers. The copy is also
// required for correctness — retention prunes the signal slices in
// place, which would race with an aliased snapshot.
func (s *Server) Predict(id string, now des.Time) (Prediction, bool) {
	st, ok := s.reg.get(id)
	if !ok {
		return Prediction{}, false
	}
	st.mu.RLock()
	src := st.tPhases
	if len(src) < 4 {
		// Prefer the transfer windows as the activity signal: the actual
		// bursts are sharply periodic, while the required-bandwidth
		// windows tile the timeline (one per compute phase) and look
		// near-constant to a DFT.
		src = st.bPhases
	}
	if len(src) < 4 {
		st.mu.RUnlock()
		return Prediction{}, false
	}
	bursts := make([]region.Phase, len(src))
	copy(bursts, src)
	lastTe := st.lastTe
	st.mu.RUnlock()

	res, err := ftio.DetectPhases(bursts, ftioBins)
	if err != nil || res.Period <= 0 || res.Confidence < minConfidence {
		return Prediction{}, false
	}
	var last des.Time
	var total des.Duration
	for _, ph := range bursts {
		if ph.Start > last {
			last = ph.Start
		}
		total += ph.Duration()
	}
	if now <= 0 {
		now = lastTe
	}
	return Prediction{
		App:        id,
		Period:     res.Period,
		Frequency:  res.Frequency,
		Confidence: res.Confidence,
		BurstLen:   total / des.Duration(len(bursts)),
		LastBurst:  last,
		Next:       res.PredictNext(last, now),
	}, true
}
