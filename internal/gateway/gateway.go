// Package gateway implements the collector half of TMIO's streaming mode:
// a long-running telemetry service that accepts many concurrent TCP
// connections speaking the tmio.StreamRecord protocol — binary frames or
// JSON lines, sniffed per connection (docs/STREAM_FORMAT.md) —
// aggregates each application's rank phases online (the Eq. 3 sweep and
// FTIO period detection run *while* the applications run), and serves the
// results over HTTP — per-app B/B_L/T step series, next-burst predictions,
// and Prometheus metrics.
//
// The paper ships TMIO metrics off-node precisely so FTIO and the I/O
// scheduler can act on them mid-run; this package is that off-node side.
//
// Ingest is built for graceful degradation, never unbounded growth: each
// connection gets its own reader goroutine, a bounded record queue with
// drop-oldest backpressure, and a read deadline; shutdown stops accepting,
// unblocks readers, and drains every queue before returning.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iobehind/internal/des"
	"iobehind/internal/tmio"
)

// Config tunes the gateway. The zero value selects the defaults noted on
// each field.
type Config struct {
	// QueueDepth bounds each connection's in-flight record queue. When
	// the aggregator falls behind, the oldest queued record is dropped
	// and counted rather than growing without bound. Defaults to 1024.
	QueueDepth int
	// RetentionWindow, when > 0, bounds each application's retained
	// history in *virtual* time: once an app's activity frontier moves
	// past the window, closed regions older than (frontier − window) are
	// compacted into a fixed summary (exact running max plus a coarsened
	// tail of at most 64 points) and the FTIO signal slices
	// are pruned to the same horizon, so per-app memory is bounded by
	// the window's occupancy instead of growing for the life of the run.
	// Records arriving behind an app's horizon are rejected and counted
	// in Stats.Late. 0 (the default) retains everything.
	RetentionWindow des.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

const (
	// readTimeout is the per-read deadline on ingest connections; a
	// silent peer is cut after this long.
	readTimeout time.Duration = 30 * time.Second
	// maxLineBytes bounds one JSON line.
	maxLineBytes int = 1 << 20
	// ftioBins is the DFT resolution for next-burst prediction.
	ftioBins int = 128
	// minConfidence is the spectral-confidence floor below which Predict
	// reports "no forecast".
	minConfidence float64 = 0.1
)

// Stats is a snapshot of the gateway's ingest counters (the numbers
// behind /metrics).
type Stats struct {
	ConnsTotal   int64 // connections ever accepted
	ConnsActive  int64 // currently open
	Ingested     int64 // records aggregated
	Dropped      int64 // records discarded by queue backpressure
	DecodeErrors int64 // lines that failed to parse
	Faulty       int64 // records marked as measured inside a fault window
	Late         int64 // records rejected as older than the retention horizon
	Apps         int   // distinct applications seen
}

// Server is the telemetry gateway. Create with New, feed it with Serve
// (TCP ingest) and Handler (HTTP query surface), stop with Shutdown.
type Server struct {
	cfg Config
	reg registry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connSeq      atomic.Int64
	connsTotal   atomic.Int64
	ingested     atomic.Int64
	dropped      atomic.Int64
	decodeErrors atomic.Int64
	faulty       atomic.Int64

	// ingestHook, when non-nil, runs before each record is aggregated;
	// tests use it to simulate a slow aggregator.
	ingestHook func()
}

// New creates a gateway server.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.reg.init(s.cfg.RetentionWindow)
	return s
}

// Serve accepts ingest connections on ln until Shutdown (which returns
// nil here) or a listener error. Each connection is handled on its own
// goroutines.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		go s.handle(c)
	}
}

// Shutdown stops accepting, unblocks in-flight readers, and waits for
// every connection's queue to drain. If ctx expires first, remaining
// connections are force-closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Expire pending reads; queued records still drain through the
	// consumers before handle() returns.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the ingest counters. ConnsActive is derived from the
// connection set itself — the single source of truth that Serve adds to
// and handle deletes from — so it can never disagree with the set the
// way a separately maintained counter transiently could.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return Stats{
		ConnsTotal:   s.connsTotal.Load(),
		ConnsActive:  active,
		Ingested:     s.ingested.Load(),
		Dropped:      s.dropped.Load(),
		DecodeErrors: s.decodeErrors.Load(),
		Faulty:       s.faulty.Load(),
		Late:         s.reg.late.Load(),
		Apps:         s.reg.len(),
	}
}

// handle runs one ingest connection: a reader goroutine (this one) that
// parses frames or lines into a bounded queue with drop-oldest
// backpressure, and a consumer goroutine that feeds the aggregation
// registry. The consumer always drains the queue before the connection
// is released, so shutdown never discards records that were already
// accepted.
//
// The protocol is sniffed from the first two bytes: the binary frame
// magic can never begin a JSON line, so the tracer's TCPSink speaks
// frames and other producers may write JSON lines to the same listener.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	// Records without an App field (a run that predates the identifier,
	// or a producer whose sink stamps no AppID) demultiplex by connection.
	fallbackID := fmt.Sprintf("conn-%d", s.connSeq.Add(1))

	queue := make(chan tmio.StreamRecord, s.cfg.QueueDepth)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for rec := range queue {
			if s.ingestHook != nil {
				s.ingestHook()
			}
			s.reg.ingest(rec, fallbackID)
			s.ingested.Add(1)
			if rec.Faulty {
				s.faulty.Add(1)
			}
		}
	}()

	enqueue := func(rec tmio.StreamRecord) {
		select {
		case queue <- rec:
		default:
			// Queue full: drop the oldest queued record to admit the
			// newest (fresh telemetry is worth more than stale).
			select {
			case <-queue:
				s.dropped.Add(1)
			default:
			}
			select {
			case queue <- rec:
			default:
				s.dropped.Add(1)
			}
		}
	}

	r := bufio.NewReaderSize(c, 64<<10)
	c.SetReadDeadline(time.Now().Add(readTimeout))
	first, _ := r.Peek(2)
	if tmio.SniffBinary(first) {
		s.serveFrames(c, r, fallbackID, enqueue)
	} else {
		s.serveLines(c, r, fallbackID, enqueue)
	}
	close(queue)
	<-drained
}

// serveFrames is the binary ingest loop: fixed header, validated length
// prefix, payload into a pooled buffer, then the shared fuzz-tested
// tmio.DecodeFrame. A bad header is connection-fatal (without a
// trustworthy length there is no resync point), but a bad payload is
// not: the frame boundary was sound, so the stream resynchronizes at
// the next header.
func (s *Server) serveFrames(c net.Conn, r *bufio.Reader, fallbackID string, enqueue func(tmio.StreamRecord)) {
	hdr := make([]byte, tmio.FrameHeaderLen)
	buf := tmio.GetFrameBuf(64 << 10)
	defer func() { tmio.PutFrameBuf(buf) }()
	recs := make([]tmio.StreamRecord, 0, 256)
	for {
		c.SetReadDeadline(time.Now().Add(readTimeout))
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err != io.EOF {
				s.logf("gateway: %s: read: %v", fallbackID, err)
			}
			return
		}
		payload, _, err := tmio.FrameInfo(hdr)
		if err != nil {
			s.decodeErrors.Add(1)
			s.logf("gateway: %s: frame: %v", fallbackID, err)
			return
		}
		buf = tmio.GrowFrameBuf(buf, tmio.FrameHeaderLen+payload)
		frame := (*buf)[:tmio.FrameHeaderLen+payload]
		copy(frame, hdr)
		if _, err := io.ReadFull(r, frame[tmio.FrameHeaderLen:]); err != nil {
			s.logf("gateway: %s: read: %v", fallbackID, err)
			return
		}
		recs, _, err = tmio.DecodeFrame(recs[:0], frame)
		if err != nil {
			s.decodeErrors.Add(1)
			continue
		}
		for _, rec := range recs {
			enqueue(rec)
		}
	}
}

// serveLines is the JSON-lines ingest loop. Unlike the bufio.Scanner it
// replaces, an oversized line (> maxLineBytes) is not connection-fatal:
// the loop discards bytes up to the next newline, counts one decode
// error, and keeps reading — one misbehaving print must not silence a
// producer's whole remaining run.
func (s *Server) serveLines(c net.Conn, r *bufio.Reader, fallbackID string, enqueue func(tmio.StreamRecord)) {
	var line []byte
	for {
		c.SetReadDeadline(time.Now().Add(readTimeout))
		line = line[:0]
		tooLong := false
		var rerr error
		for {
			chunk, err := r.ReadSlice('\n')
			if !tooLong {
				if len(line)+len(chunk) > maxLineBytes {
					tooLong = true
					line = line[:0]
				} else {
					line = append(line, chunk...)
				}
			}
			if err == bufio.ErrBufferFull {
				continue // no newline yet: keep accumulating (or skipping)
			}
			rerr = err
			break
		}
		if tooLong {
			s.decodeErrors.Add(1)
			s.logf("gateway: %s: line exceeds %d bytes, skipped", fallbackID, maxLineBytes)
		}
		if rerr != nil && rerr != io.EOF {
			s.logf("gateway: %s: read: %v", fallbackID, rerr)
			return
		}
		if !tooLong {
			if trimmed := bytes.TrimSpace(line); len(trimmed) != 0 {
				// Unknown fields and future schema versions are tolerated,
				// truncated or torn lines rejected — see
				// tmio.DecodeStreamRecord, the fuzz-tested decode path
				// shared with every other consumer.
				rec, err := tmio.DecodeStreamRecord(trimmed)
				if err != nil {
					s.decodeErrors.Add(1)
				} else {
					enqueue(rec)
				}
			}
		}
		if rerr != nil {
			return // EOF after processing the final (unterminated) line
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
