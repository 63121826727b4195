package tmio

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iobehind/internal/des"
)

// StreamVersion is the wire-format version stamped on every emitted
// record. Decoders must tolerate records with a higher version (and any
// unknown fields): the protocol only grows.
const StreamVersion = 1

// ErrSinkClosed is returned by Emit after Close.
var ErrSinkClosed = errors.New("tmio: sink closed")

// Sink receives metric records as they are produced, the stand-in for
// TMIO's ZeroMQ/TCP streaming mode ("the library can also send the data
// via TCP to avoid creating a file").
type Sink interface {
	// Emit delivers one metric record. Implementations must be safe to
	// call from the simulation goroutines (which run one at a time) and
	// must never block on the network: tracing cannot stall the traced
	// application.
	Emit(rec StreamRecord) error
	Close() error
}

// StreamRecord is one rank-phase measurement, streamed in a binary frame
// by TCPSink or as a JSON line by other producers (docs/STREAM_FORMAT.md).
//
// V is the schema version (StreamVersion); App identifies the
// application/run so a collector can demultiplex several concurrent runs
// arriving on one listener. Ts/Te bound the required-bandwidth window
// (B is measured over it); Tts/Tte bound the actual transfer window of
// the phase's completed requests (T is measured over it) and are absent
// when no request had finished by the time the phase closed.
type StreamRecord struct {
	V      int     `json:"v,omitempty"`
	App    string  `json:"app,omitempty"`
	Rank   int     `json:"rank"`
	Phase  int     `json:"phase"`
	TsSec  float64 `json:"ts"`
	TeSec  float64 `json:"te"`
	B      float64 `json:"b"`
	BL     float64 `json:"bl,omitempty"`
	T      float64 `json:"t,omitempty"`
	TtsSec float64 `json:"tts,omitempty"`
	TteSec float64 `json:"tte,omitempty"`
	// Faulty marks a phase measured inside an injected fault window (its B
	// was excluded from limiter feedback); Retries counts the transient-
	// error retries of the phase's requests. Older decoders ignore both.
	Faulty  bool `json:"fault,omitempty"`
	Retries int  `json:"retries,omitempty"`
}

// The TCP sink's buffering and reconnection tuning. newSink copies them
// into the sink, where in-package tests may shorten them before the
// writer starts.
const (
	// sinkBufferRecords bounds the in-memory queue that absorbs records
	// while the collector is slow or down. When full, the oldest record
	// is dropped and counted.
	sinkBufferRecords = 4096
	// sinkWriteTimeout bounds each flush to the collector; a stalled peer
	// costs at most this much writer-goroutine time per batch (the
	// emitting application is never the one waiting).
	sinkWriteTimeout = 5 * time.Second
	// sinkDialTimeout bounds each (re)connection attempt.
	sinkDialTimeout = 2 * time.Second
	// sinkBackoffMin and sinkBackoffMax bound the exponential reconnect
	// backoff, which is jittered ±50%.
	sinkBackoffMin = 50 * time.Millisecond
	sinkBackoffMax = 5 * time.Second
	// sinkSeed drives the backoff jitter, so reconnect timing repeats.
	sinkSeed = 1
)

// TCPSink streams records over a TCP connection as binary frames
// (docs/STREAM_FORMAT.md): each flush packs the whole batch into a pooled
// frame buffer and writes it with one syscall, with zero steady-state
// allocations.
//
// Emit never blocks on the network and never fails the application:
// records go into a bounded in-memory ring that a background writer
// flushes to the collector. If the connection drops, the writer redials
// with exponential backoff and jitter (when the sink was created with an
// address) while the queue keeps absorbing records; once the queue is
// full the oldest records are dropped and counted — the tracer degrades,
// it never stalls.
type TCPSink struct {
	appID string // stamped into records that carry no App
	addr  string // redial target; empty when wrapping a foreign conn

	// Tuning, set from the sink* constants by newSink.
	bufferRecords             int
	writeTimeout, dialTimeout time.Duration
	backoffMin, backoffMax    time.Duration

	mu      sync.Mutex
	ring    []StreamRecord // fixed-capacity drop-oldest queue, allocated on first use
	head    int            // index of the oldest queued record
	queued  int            // number of records currently queued
	dropped uint64
	closed  bool
	lastErr error // last delivery error; a clean flush clears it
	dropErr error // error behind the most recent drop; never cleared

	wake chan struct{} // 1-buffered doorbell for the writer
	done chan struct{} // closed by Close
	wg   sync.WaitGroup

	// Writer-goroutine state (no lock needed after construction).
	conn    net.Conn
	rng     *rand.Rand
	scratch []StreamRecord // reused takeBatch buffer, owned by the writer
	fbuf    *[]byte        // pooled frame buffer

	// dials counts connection attempts; the redial-rate test asserts the
	// backoff bounds it.
	dials atomic.Int64
}

// DialSink connects to addr (e.g. "127.0.0.1:5555") and stamps appID
// into every record's App field, unless the record already carries one,
// so one collector can tell concurrent runs apart. The initial dial is
// synchronous so an unreachable collector is reported immediately; after
// that the sink reconnects on its own.
func DialSink(addr, appID string) (*TCPSink, error) {
	conn, err := net.DialTimeout("tcp", addr, sinkDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tmio: dial sink: %w", err)
	}
	s := newSink(conn, appID)
	s.addr = addr
	s.start()
	return s, nil
}

// newSink builds a sink around conn with the tuning constants; the
// writer starts with start. A sink without an addr cannot redial: if
// its connection fails, it drops records (counted by Dropped) instead
// of blocking.
func newSink(conn net.Conn, appID string) *TCPSink {
	return &TCPSink{
		appID:         appID,
		bufferRecords: sinkBufferRecords,
		writeTimeout:  sinkWriteTimeout,
		dialTimeout:   sinkDialTimeout,
		backoffMin:    sinkBackoffMin,
		backoffMax:    sinkBackoffMax,
		conn:          conn,
		wake:          make(chan struct{}, 1),
		done:          make(chan struct{}),
		rng:           rand.New(rand.NewSource(sinkSeed)),
	}
}

func (s *TCPSink) start() {
	s.wg.Add(1)
	go s.writer()
}

// Emit implements Sink: it stamps the record and enqueues it, dropping
// the oldest queued record when the buffer is full. It touches only the
// in-memory queue, so the caller can never be blocked by the collector.
func (s *TCPSink) Emit(rec StreamRecord) error {
	if rec.V == 0 {
		rec.V = StreamVersion
	}
	if rec.App == "" {
		rec.App = s.appID
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSinkClosed
	}
	if s.ring == nil {
		s.ring = make([]StreamRecord, s.bufferRecords)
	}
	if s.queued == len(s.ring) {
		// Drop-oldest is one head advance on the ring. (The previous slice
		// queue shifted every element here, so a sustained-overflow
		// producer paid O(n) per emit — O(n²) across the overflow.)
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.queued--
		s.dropped++
		s.dropErr = errSinkOverflow
	}
	i := s.head + s.queued
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	s.ring[i] = rec
	s.queued++
	s.mu.Unlock()
	//iolint:ignore goroutine nonblocking wake of the sink's flusher goroutine: whether the send lands only affects trace delivery latency, never the simulated results the sink observes
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return nil
}

// Dropped returns how many records were discarded because the buffer
// overflowed or a write failed mid-batch.
func (s *TCPSink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close drains the queue (one final flush attempt, bounded by the dial
// and write timeouts), stops the writer, and closes the connection. It
// returns a summary error whenever any records were dropped during the
// sink's lifetime — a clean final flush does not erase earlier loss —
// and otherwise the last delivery error, if any.
func (s *TCPSink) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped > 0 {
		return fmt.Errorf("tmio: sink dropped %d records: %w", s.dropped, s.dropErr)
	}
	return s.lastErr
}

// writer is the background flush loop.
func (s *TCPSink) writer() {
	defer s.wg.Done()
	defer func() {
		if s.conn != nil {
			s.conn.Close()
		}
		if s.fbuf != nil {
			PutFrameBuf(s.fbuf)
		}
	}()
	for {
		batch, final := s.takeBatch()
		if len(batch) == 0 {
			if final {
				return
			}
			select {
			case <-s.wake:
			case <-s.done:
			}
			continue
		}
		s.flush(batch, final)
	}
}

// takeBatch copies the whole queue into the writer's reused batch
// buffer and empties the ring. final reports that Close was called:
// after one more flush attempt the writer must exit.
func (s *TCPSink) takeBatch() ([]StreamRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(s.scratch) < s.queued {
		s.scratch = make([]StreamRecord, 0, len(s.ring))
	}
	batch := s.scratch[:0]
	first := len(s.ring) - s.head
	if first > s.queued {
		first = s.queued
	}
	batch = append(batch, s.ring[s.head:s.head+first]...)
	batch = append(batch, s.ring[:s.queued-first]...)
	s.scratch = batch
	s.head, s.queued = 0, 0
	return batch, s.closed
}

// flush delivers one batch. Dial failures requeue the batch (nothing was
// written, so no duplicates); write failures drop the batch (it may be
// partially delivered and replaying would double-count downstream).
func (s *TCPSink) flush(batch []StreamRecord, final bool) {
	if s.conn == nil && !s.redial(final) {
		if final || s.addr == "" {
			s.drop(batch, errors.New("tmio: sink disconnected"))
		} else {
			s.requeue(batch)
		}
		return
	}
	// Exact upper bound on the encoded size, so the pooled buffer never
	// regrows mid-append and stays in its size class.
	payload := 0
	for i := range batch {
		payload += 2 + recFixedLen + len(batch[i].App)
	}
	frames := 1 + payload/(MaxFramePayload-maxRecordWire)
	if s.fbuf == nil {
		s.fbuf = GetFrameBuf(payload + frames*FrameHeaderLen)
	} else {
		s.fbuf = GrowFrameBuf(s.fbuf, payload+frames*FrameHeaderLen)
	}
	out, err := appendFrames((*s.fbuf)[:0], batch)
	*s.fbuf = out[:0]
	if err != nil {
		// A record outside the wire range cannot be represented; the
		// batch is lost the same way a failed write loses it.
		s.drop(batch, err)
		return
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	if _, err := s.conn.Write(out); err != nil {
		s.conn.Close()
		s.conn = nil
		s.drop(batch, err)
		return
	}
	s.mu.Lock()
	s.lastErr = nil
	s.mu.Unlock()
}

// redial re-establishes the connection with exponential backoff and
// jitter. During shutdown (final) it tries exactly once so Close stays
// bounded. It returns false when no connection could be made (or the
// sink wraps a foreign conn and cannot redial at all).
func (s *TCPSink) redial(final bool) bool {
	if s.addr == "" {
		return false
	}
	backoff := s.backoffMin
	for {
		s.dials.Add(1)
		conn, err := net.DialTimeout("tcp", s.addr, s.dialTimeout)
		if err == nil {
			s.conn = conn
			return true
		}
		s.setErr(err)
		if final {
			return false
		}
		// Jitter ±50% around the current backoff, then double it.
		d := backoff/2 + time.Duration(s.rng.Int63n(int64(backoff)+1))
		if !s.sleep(d) {
			// Close arrived mid-backoff: one last immediate attempt.
			s.dials.Add(1)
			conn, err := net.DialTimeout("tcp", s.addr, s.dialTimeout)
			if err == nil {
				s.conn = conn
				return true
			}
			return false
		}
		backoff = min(2*backoff, s.backoffMax)
	}
}

// sleep waits d, returning false if Close happened first.
func (s *TCPSink) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

// errSinkOverflow explains drops caused by the bounded queue itself —
// the collector was too slow or down for too long — as opposed to a
// failed write or an unencodable record.
var errSinkOverflow = errors.New("tmio: sink buffer overflowed")

func (s *TCPSink) drop(batch []StreamRecord, err error) {
	s.mu.Lock()
	s.dropped += uint64(len(batch))
	s.lastErr = err
	s.dropErr = err
	s.mu.Unlock()
}

// requeue puts an unflushed batch back at the front of the ring (every
// record queued since is newer), dropping the oldest records when the
// combined set no longer fits. Writing into the ring in place replaces
// the old slice-merge, which reallocated on every failed dial.
func (s *TCPSink) requeue(batch []StreamRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		s.ring = make([]StreamRecord, s.bufferRecords)
	}
	if over := len(batch) + s.queued - len(s.ring); over > 0 {
		s.dropped += uint64(over)
		s.dropErr = errSinkOverflow
		batch = batch[over:]
	}
	s.head -= len(batch)
	if s.head < 0 {
		s.head += len(s.ring)
	}
	for i := range batch {
		j := s.head + i
		if j >= len(s.ring) {
			j -= len(s.ring)
		}
		s.ring[j] = batch[i]
	}
	s.queued += len(batch)
}

func (s *TCPSink) setErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// SetSink attaches a streaming sink; every phase close is emitted as a
// record. Pass nil to detach.
func (t *Tracer) SetSink(sink Sink) { t.sink = sink }

// emitPhase streams a closed phase if a sink is attached. Emission errors
// are recorded, not fatal: tracing must never kill the application.
func (t *Tracer) emitPhase(rank int, rec phaseRecord) {
	if t.sink == nil {
		return
	}
	sr := StreamRecord{
		V:       StreamVersion,
		Rank:    rank,
		Phase:   rec.index,
		TsSec:   rec.ts.Seconds(),
		TeSec:   rec.te.Seconds(),
		B:       rec.b,
		BL:      rec.bl,
		Faulty:  rec.faulty,
		Retries: rec.retries,
	}
	// Throughput over the phase's completed transfers. Requests still in
	// flight at phase close (their wait has not finished) have no end
	// time yet and are skipped; the offline report covers them instead.
	var tStart, tEnd des.Time
	var transferred int64
	seen := false
	for _, req := range rec.requests {
		st := req.Stats()
		if st.End <= st.Start {
			continue
		}
		if !seen || st.Start < tStart {
			tStart = st.Start
		}
		if st.End > tEnd {
			tEnd = st.End
		}
		transferred += st.Bytes
		seen = true
	}
	if seen && tEnd > tStart {
		sr.TtsSec = tStart.Seconds()
		sr.TteSec = tEnd.Seconds()
		sr.T = float64(transferred) / tEnd.Sub(tStart).Seconds()
	}
	if err := t.sink.Emit(sr); err != nil && t.sinkErr == nil {
		t.sinkErr = err
	}
}

// SinkErr returns the first streaming error encountered, if any.
func (t *Tracer) SinkErr() error { return t.sinkErr }

// CollectSink is an in-memory Sink for tests and examples.
type CollectSink struct {
	mu      sync.Mutex
	Records []StreamRecord
}

// Emit implements Sink.
func (c *CollectSink) Emit(rec StreamRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Records = append(c.Records, rec)
	return nil
}

// Close implements Sink.
func (c *CollectSink) Close() error { return nil }

// Len returns the number of collected records.
func (c *CollectSink) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.Records)
}
