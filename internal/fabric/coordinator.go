package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"iobehind/internal/runner"
)

// Options configures a Coordinator.
type Options struct {
	// Cache stores accepted results content-addressed by cache key. It
	// is required: the cache is the fabric's only result store, written
	// only when a lease's result is accepted, and a coordinator
	// restarted over the same directory resumes from it.
	Cache *runner.Cache
	// LeaseTimeout is how long a worker may hold a point before the
	// lease expires and the point is re-dispatched to another worker
	// (straggler speculation). Default 60s.
	LeaseTimeout time.Duration
	// Logf receives structured per-lease log lines (key=value pairs).
	// Nil discards them.
	Logf func(format string, args ...any)
	// OnAccept, when non-nil, is called after every first-acceptance of
	// a point — the hook the integration test uses to kill a worker
	// mid-sweep at a deterministic moment.
	OnAccept func(worker string, index int, pointKey string)
}

// lease is one outstanding grant.
type lease struct {
	seq      uint64
	index    int
	worker   string
	granted  time.Time
	deadline time.Time
}

// workerInfo is per-worker liveness accounting for /metrics.
type workerInfo struct {
	lastSeen  time.Time
	leases    int // currently held
	completed int // results accepted (first or duplicate)
}

const (
	statePending uint8 = iota
	stateInflight
	stateDone
)

// sweepState is the currently-active (or most recently finished) sweep.
// It survives its own completion so straggler results arriving after
// SweepDone are still recognized as duplicates and byte-verified.
type sweepState struct {
	points []ManifestPoint
	byKey  map[string]int // cache key -> index
	state  []uint8
	shas   []string // accepted entry SHA per done point ("" for error completions)
	errs   []string
	queue  []int
	stats  SweepStats
	done   int

	// clientMu serializes everything written to the submitter and
	// guards client and delivered. Lock order: clientMu before c.mu.
	clientMu  sync.Mutex
	client    net.Conn // nil once the submitter disconnects
	delivered int      // results handed to the client stream so far
}

// idleRetry is the backoff hint sent to workers when no work is pending.
const idleRetry = 200 * time.Millisecond

// Coordinator hands manifest points to pull-based workers, re-dispatches
// expired leases, accepts the first completion of each point (verifying
// that any duplicate is byte-identical), stores it in the cache, and
// streams results back to the submitting client.
type Coordinator struct {
	opts  Options
	cache *runner.Cache
	logf  func(string, ...any)

	mu      sync.Mutex
	sweep   *sweepState
	seq     uint64
	leases  map[uint64]*lease
	workers map[string]*workerInfo
	totals  SweepStats // across all sweeps of this incarnation
	closed  bool

	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator over opts.Cache.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.Cache == nil {
		return nil, fmt.Errorf("fabric: coordinator requires a cache")
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 60 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Coordinator{
		opts:    opts,
		cache:   opts.Cache,
		logf:    logf,
		leases:  make(map[uint64]*lease),
		workers: make(map[string]*workerInfo),
		stop:    make(chan struct{}),
	}, nil
}

// Start serves the fabric protocol on ln and launches the lease reaper.
func (c *Coordinator) Start(ln net.Listener) {
	c.ln = ln
	c.wg.Add(2)
	go c.acceptLoop()
	go c.reaper()
}

// Addr returns the listener address (for tests and logs).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close stops serving. In-flight worker computations are abandoned to
// their own fate — every accepted result is already in the cache, which
// is exactly what a restarted coordinator resumes from.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	if c.ln != nil {
		c.ln.Close()
	}
	c.wg.Wait()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.stop:
				return
			default:
			}
			c.logf("fabric: accept: %v", err)
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			c.handleConn(conn)
		}()
	}
}

// handleConn reads the hello and dispatches on role.
func (c *Coordinator) handleConn(conn net.Conn) {
	// Unblock reads when the coordinator shuts down.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-c.stop:
			conn.Close()
		case <-done:
		}
	}()

	hello, err := c.read(conn, "hello")
	if err != nil || hello.Kind != KindHello {
		return
	}
	switch hello.Role {
	case "worker":
		c.serveWorker(conn, hello.ID)
	case "client":
		c.serveClient(conn, hello.ID)
	default:
		c.logf("fabric: conn from %s: unknown role %q", conn.RemoteAddr(), hello.Role)
	}
}

// read reads one message from conn's peer. A failure other than a clean
// close or this coordinator's shutdown is logged with the peer's address
// and the error, so a peer speaking another protocol version is named
// when its connection is dropped. what names the expected message.
func (c *Coordinator) read(conn net.Conn, what string) (Msg, error) {
	m, err := ReadMsg(conn)
	if err != nil && !errors.Is(err, io.EOF) {
		select {
		case <-c.stop:
		default:
			c.logf("fabric: conn from %s: %s: %v", conn.RemoteAddr(), what, err)
		}
	}
	return m, err
}

// touchWorker updates liveness for id and returns its info (locked).
func (c *Coordinator) touchWorker(id string) *workerInfo {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{}
		c.workers[id] = w
	}
	w.lastSeen = time.Now()
	return w
}

// serveWorker runs the pull loop for one worker connection.
func (c *Coordinator) serveWorker(conn net.Conn, id string) {
	if id == "" {
		id = conn.RemoteAddr().String()
	}
	var held []uint64 // lease seqs granted over this connection, not yet resolved
	defer func() {
		// A dropped connection is a fast straggler signal: re-dispatch
		// its unresolved leases now instead of waiting for the deadline.
		c.mu.Lock()
		for _, seq := range held {
			if l, ok := c.leases[seq]; ok {
				delete(c.leases, seq)
				c.requeueLocked(l, "disconnect")
			}
		}
		if w := c.workers[id]; w != nil && w.leases > 0 {
			w.leases = 0
		}
		c.mu.Unlock()
	}()

	for {
		m, err := c.read(conn, "worker="+id)
		if err != nil {
			return
		}
		switch m.Kind {
		case KindGet:
			reply := c.grant(id, &held)
			if err := WriteMsg(conn, reply); err != nil {
				return
			}
		case KindResult:
			dup := c.acceptResult(id, m, &held)
			if err := WriteMsg(conn, Msg{Kind: KindAck, Seq: m.Seq, Dup: dup}); err != nil {
				return
			}
		default:
			c.logf("fabric: worker=%s unexpected %s message", id, m.Kind)
			return
		}
	}
}

// grant hands out the next pending point or an idle hint.
func (c *Coordinator) grant(worker string, held *[]uint64) Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorker(worker)
	sw := c.sweep
	if sw == nil || len(sw.queue) == 0 {
		return Msg{Kind: KindIdle, RetryMS: int(idleRetry / time.Millisecond)}
	}
	idx := sw.queue[0]
	sw.queue = sw.queue[1:]
	sw.state[idx] = stateInflight
	c.seq++
	now := time.Now()
	l := &lease{seq: c.seq, index: idx, worker: worker, granted: now, deadline: now.Add(c.opts.LeaseTimeout)}
	c.leases[l.seq] = l
	*held = append(*held, l.seq)
	w.leases++
	c.logf("fabric: lease seq=%d point=%s worker=%s event=grant deadline=%s",
		l.seq, sw.points[idx].Key, worker, l.deadline.Format(time.RFC3339))
	return Msg{Kind: KindLease, Seq: l.seq, Index: idx, Point: &sw.points[idx]}
}

// requeueLocked returns a lease's point to the queue. Callers hold c.mu.
func (c *Coordinator) requeueLocked(l *lease, cause string) {
	sw := c.sweep
	if sw == nil || l.index >= len(sw.state) || sw.state[l.index] != stateInflight {
		return
	}
	sw.state[l.index] = statePending
	sw.queue = append(sw.queue, l.index)
	sw.stats.Redispatches++
	c.totals.Redispatches++
	if w := c.workers[l.worker]; w != nil && w.leases > 0 {
		w.leases--
	}
	c.logf("fabric: lease seq=%d point=%s worker=%s event=redispatch cause=%s held=%s",
		l.seq, sw.points[l.index].Key, l.worker, cause, time.Since(l.granted).Round(time.Millisecond))
}

// reaper expires leases past their deadline.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	interval := c.opts.LeaseTimeout / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			for seq, l := range c.leases {
				if now.After(l.deadline) {
					delete(c.leases, seq)
					c.requeueLocked(l, "expired")
				}
			}
			c.mu.Unlock()
		}
	}
}

// acceptResult records one completion and, if it is the point's first,
// stores and delivers it. The first result for a point wins; later ones
// are duplicates, verified byte-identical via SHA-256 (a mismatch means
// a determinism violation and is counted loudly).
func (c *Coordinator) acceptResult(worker string, m Msg, held *[]uint64) (dup bool) {
	sw, idx, first := c.recordResult(worker, m, held)
	if first {
		c.deliverResult(sw, worker, idx, m)
	}
	return !first
}

// recordResult resolves a worker's lease and marks the point done under
// c.mu. It returns the sweep and point index when this is the point's
// first completion.
func (c *Coordinator) recordResult(worker string, m Msg, held *[]uint64) (*sweepState, int, bool) {
	c.mu.Lock()
	w := c.touchWorker(worker)
	if _, ok := c.leases[m.Seq]; ok {
		delete(c.leases, m.Seq)
		if w.leases > 0 {
			w.leases--
		}
	}
	for i, seq := range *held {
		if seq == m.Seq {
			*held = append((*held)[:i], (*held)[i+1:]...)
			break
		}
	}
	sw := c.sweep
	if sw == nil {
		c.mu.Unlock()
		c.logf("fabric: worker=%s event=orphan-result cachekey=%s", worker, m.CacheKey)
		return nil, 0, false
	}
	idx, ok := sw.byKey[m.CacheKey]
	if !ok {
		c.mu.Unlock()
		c.logf("fabric: worker=%s event=orphan-result cachekey=%s", worker, m.CacheKey)
		return nil, 0, false
	}
	key := sw.points[idx].Key
	if sw.state[idx] == stateDone {
		sw.stats.Duplicates++
		c.totals.Duplicates++
		w.completed++
		sha := ""
		if m.Err == "" {
			sha = entrySHA(m.Bytes)
		}
		if sha != sw.shas[idx] {
			sw.stats.Mismatches++
			c.totals.Mismatches++
			c.logf("fabric: point=%s worker=%s event=DUPLICATE-MISMATCH first=%s dup=%s — determinism violation, first result kept",
				key, worker, sw.shas[idx], sha)
		} else {
			c.logf("fabric: lease seq=%d point=%s worker=%s event=duplicate", m.Seq, key, worker)
		}
		c.mu.Unlock()
		return nil, 0, false
	}
	sw.state[idx] = stateDone
	sw.done++
	w.completed++
	if m.Err != "" {
		sw.errs[idx] = m.Err
		sw.stats.Errors++
		c.totals.Errors++
	} else {
		sw.shas[idx] = entrySHA(m.Bytes)
		sw.stats.Computed++
		c.totals.Computed++
	}
	c.mu.Unlock()
	return sw, idx, true
}

// deliverResult stores a first completion in the cache and streams it
// to the submitting client.
func (c *Coordinator) deliverResult(sw *sweepState, worker string, idx int, m Msg) {
	key := sw.points[idx].Key
	if m.Err == "" {
		// The point's one cache write (atomic temp+rename): duplicates
		// never reach here, and a resubmission resumes from it. Error
		// completions are not stored, so a resume retries them.
		c.cache.PutBytes(m.CacheKey, m.Bytes)
		c.logf("fabric: lease seq=%d point=%s worker=%s event=accept bytes=%d", m.Seq, key, worker, len(m.Bytes))
	} else {
		c.logf("fabric: lease seq=%d point=%s worker=%s event=accept-error err=%q", m.Seq, key, worker, m.Err)
	}
	sw.clientMu.Lock()
	c.deliverLocked(sw, Msg{Kind: KindResult, Index: idx, Bytes: m.Bytes, Err: m.Err})
	sw.clientMu.Unlock()
	if c.opts.OnAccept != nil {
		c.opts.OnAccept(worker, idx, key)
	}
}

// deliverLocked streams one point's result to the client and counts it.
// The delivery that completes the count sends SweepDone with the final
// stats right behind it, so the client sees every result before the end
// of the sweep in whatever order concurrent accepters get here. Callers
// hold sw.clientMu.
func (c *Coordinator) deliverLocked(sw *sweepState, m Msg) {
	c.writeClientLocked(sw, m)
	sw.delivered++
	if sw.delivered < len(sw.points) {
		return
	}
	c.mu.Lock()
	stats := sw.stats
	c.mu.Unlock()
	c.logf("fabric: sweep done points=%d computed=%d cache=%d redispatch=%d dup=%d err=%d",
		stats.Points, stats.Computed, stats.CacheHits,
		stats.Redispatches, stats.Duplicates, stats.Errors)
	c.writeClientLocked(sw, Msg{Kind: KindSweepDone, Stats: &stats})
}

// writeClientLocked pushes one message to the submitting client, if
// still connected. A failed write drops the client; the sweep itself
// proceeds (results are durable in the cache, a resubmission resumes
// them). Callers hold sw.clientMu.
func (c *Coordinator) writeClientLocked(sw *sweepState, m Msg) {
	if sw.client == nil {
		return
	}
	if err := WriteMsg(sw.client, m); err != nil {
		c.logf("fabric: client write failed, detaching: %v", err)
		sw.client.Close()
		sw.client = nil
	}
}

// serveClient accepts one submission on conn and streams its results.
func (c *Coordinator) serveClient(conn net.Conn, id string) {
	m, err := c.read(conn, "client="+id)
	if err != nil || m.Kind != KindSubmit {
		return
	}
	if len(m.Points) == 0 {
		WriteMsg(conn, Msg{Kind: KindAccepted, Err: "empty manifest"})
		return
	}
	keys := make(map[string]bool, len(m.Points))
	for _, mp := range m.Points {
		if !runner.ValidCacheKey(mp.CacheKey) {
			WriteMsg(conn, Msg{Kind: KindAccepted, Err: fmt.Sprintf("point %s: malformed cache key", mp.Key)})
			return
		}
		if keys[mp.CacheKey] {
			// Two points sharing an address would alias in byKey and the
			// cache; real configs cannot collide, so this is a client bug.
			WriteMsg(conn, Msg{Kind: KindAccepted, Err: fmt.Sprintf("point %s: duplicate cache key in manifest", mp.Key)})
			return
		}
		keys[mp.CacheKey] = true
	}

	sw := &sweepState{
		points: m.Points,
		byKey:  make(map[string]int, len(m.Points)),
		state:  make([]uint8, len(m.Points)),
		shas:   make([]string, len(m.Points)),
		errs:   make([]string, len(m.Points)),
		client: conn,
	}
	sw.stats.Points = len(m.Points)
	// Hold the client stream from before the sweep is published until
	// the acceptance and the cache hits are written, so no worker result
	// can overtake them.
	sw.clientMu.Lock()
	c.mu.Lock()
	if c.sweep != nil && c.sweep.done < len(c.sweep.points) {
		c.mu.Unlock()
		sw.clientMu.Unlock()
		WriteMsg(conn, Msg{Kind: KindAccepted, Err: "coordinator busy with an active sweep"})
		return
	}
	type instant struct {
		idx   int
		bytes []byte
	}
	var ready []instant
	for i, mp := range m.Points {
		sw.byKey[mp.CacheKey] = i
		// Resume probe: an entry accepted by this or an earlier
		// coordinator over the same cache directory, or written by a
		// local iosweep -cache run, is trusted the same way the local
		// runner trusts its cache.
		if data, ok := c.cache.GetBytes(mp.CacheKey); ok {
			sw.state[i] = stateDone
			sw.shas[i] = entrySHA(data)
			sw.done++
			sw.stats.CacheHits++
			c.totals.CacheHits++
			ready = append(ready, instant{idx: i, bytes: data})
			continue
		}
		sw.queue = append(sw.queue, i)
	}
	c.sweep = sw
	stats := sw.stats
	pending := len(sw.queue)
	c.mu.Unlock()

	c.logf("fabric: client=%s event=submit points=%d cache=%d pending=%d",
		id, stats.Points, stats.CacheHits, pending)
	c.writeClientLocked(sw, Msg{Kind: KindAccepted, Stats: &stats})
	for _, r := range ready {
		c.deliverLocked(sw, Msg{Kind: KindResult, Index: r.idx, Bytes: r.bytes, Cached: true})
	}
	sw.clientMu.Unlock()

	// Block until the client hangs up (or sends anything else, which we
	// ignore); detach it so worker-side streaming stops cleanly.
	for {
		if _, err := c.read(conn, "client="+id); err != nil {
			break
		}
	}
	sw.clientMu.Lock()
	if sw.client == conn {
		sw.client = nil
	}
	sw.clientMu.Unlock()
}

// Snapshot is a point-in-time view of the coordinator for /metrics and
// tests.
type Snapshot struct {
	Pending  int
	Inflight int
	Done     int
	Totals   SweepStats
	Workers  map[string]WorkerSnapshot
}

// WorkerSnapshot is one worker's liveness view.
type WorkerSnapshot struct {
	LastSeen  time.Time
	Leases    int
	Completed int
}

// Snapshot returns the current counters.
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Totals: c.totals, Workers: make(map[string]WorkerSnapshot, len(c.workers))}
	if sw := c.sweep; sw != nil {
		for _, st := range sw.state {
			switch st {
			case statePending:
				s.Pending++
			case stateInflight:
				s.Inflight++
			case stateDone:
				s.Done++
			}
		}
	}
	for id, w := range c.workers {
		s.Workers[id] = WorkerSnapshot{LastSeen: w.lastSeen, Leases: w.leases, Completed: w.completed}
	}
	return s
}

// Handler returns the coordinator's read-only HTTP surface:
//
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", c.serveMetrics)
	return mux
}

// serveMetrics writes the Prometheus text exposition format (0.0.4),
// mirroring the gateway's metrics surface.
func (c *Coordinator) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := c.Snapshot()
	cst := c.cache.Stats()
	var b strings.Builder
	counter := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("iofabric_points_pending", "Points queued awaiting a lease.", snap.Pending)
	gauge("iofabric_points_inflight", "Points currently leased to workers.", snap.Inflight)
	gauge("iofabric_points_done", "Points of the current sweep completed.", snap.Done)
	counter("iofabric_results_computed_total", "Results computed by workers.", snap.Totals.Computed)
	counter("iofabric_cache_hits_total", "Points served from the result store at submit.", snap.Totals.CacheHits)
	counter("iofabric_redispatches_total", "Leases expired or dropped and re-queued.", snap.Totals.Redispatches)
	counter("iofabric_duplicate_results_total", "Straggler completions after another worker's.", snap.Totals.Duplicates)
	counter("iofabric_result_mismatches_total", "Duplicate completions whose bytes differed (determinism violations).", snap.Totals.Mismatches)
	counter("iofabric_point_errors_total", "Points completed with an error.", snap.Totals.Errors)
	counter("iofabric_cache_store_hits_total", "Result-store reads served.", cst.Hits)
	counter("iofabric_cache_store_misses_total", "Result-store reads missed.", cst.Misses)
	counter("iofabric_cache_store_writes_total", "Result-store entries written.", cst.Writes)
	counter("iofabric_cache_store_errors_total", "Result-store read/write failures.", cst.Errors)
	ratio := 0.0
	if cst.Hits+cst.Misses > 0 {
		ratio = float64(cst.Hits) / float64(cst.Hits+cst.Misses)
	}
	fmt.Fprintf(&b, "# HELP iofabric_cache_hit_ratio Fraction of result-store reads served.\n# TYPE iofabric_cache_hit_ratio gauge\niofabric_cache_hit_ratio %.4f\n", ratio)
	ids := make([]string, 0, len(snap.Workers))
	for id := range snap.Workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, "# HELP iofabric_worker_idle_seconds Seconds since the worker was last heard from.\n# TYPE iofabric_worker_idle_seconds gauge\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "iofabric_worker_idle_seconds{worker=%q} %.3f\n", id, time.Since(snap.Workers[id].LastSeen).Seconds())
	}
	fmt.Fprintf(&b, "# HELP iofabric_worker_leases Leases currently held per worker.\n# TYPE iofabric_worker_leases gauge\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "iofabric_worker_leases{worker=%q} %d\n", id, snap.Workers[id].Leases)
	}
	fmt.Fprintf(&b, "# HELP iofabric_worker_completed_total Results delivered per worker.\n# TYPE iofabric_worker_completed_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "iofabric_worker_completed_total{worker=%q} %d\n", id, snap.Workers[id].Completed)
	}
	w.Write([]byte(b.String()))
}

// entrySHA hashes entry bytes for the duplicate-completion check.
func entrySHA(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
