package tmio

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"iobehind/internal/des"
)

// pipeSink starts a sink on one end of a net.Pipe, which cannot be
// redialled, with a 20 ms write timeout and, when bufferRecords is
// positive, that ring size.
func pipeSink(conn net.Conn, bufferRecords int) *TCPSink {
	s := newSink(conn, "")
	if bufferRecords > 0 {
		s.bufferRecords = bufferRecords
	}
	s.writeTimeout = 20 * time.Millisecond
	s.start()
	return s
}

// dialFastSink dials addr like DialSink, with a 2–20 ms reconnect
// backoff so the reconnect tests take milliseconds.
func dialFastSink(t *testing.T, addr string) *TCPSink {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, sinkDialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	s := newSink(conn, "")
	s.addr = addr
	s.backoffMin, s.backoffMax = 2*time.Millisecond, 20*time.Millisecond
	s.start()
	return s
}

// TestSinkCloseThenEmit: emitting on a closed sink must fail cleanly (no
// panic, no block) and Close must be idempotent.
func TestSinkCloseThenEmit(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	sink := pipeSink(client, 0)
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := sink.Emit(StreamRecord{Rank: 1}); err != ErrSinkClosed {
		t.Fatalf("emit after close = %v, want ErrSinkClosed", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestSinkStalledPeerNeverBlocks: a peer that accepts the connection but
// never reads must cost the emitter nothing. net.Pipe is unbuffered, so
// every write to the stalled peer parks until the write deadline — the
// deterministic worst case. Emit must stay non-blocking, the buffer must
// stay bounded, and the loss must be counted.
func TestSinkStalledPeerNeverBlocks(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	sink := pipeSink(client, 8)
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := sink.Emit(StreamRecord{Rank: 0, Phase: i, B: 1}); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("200 emits against a stalled peer took %v", elapsed)
	}
	sink.Close()
	if got := sink.Dropped(); got == 0 {
		t.Fatal("no drops recorded: buffer cannot have stayed bounded")
	} else if got > 200 {
		t.Fatalf("dropped %d > emitted 200", got)
	}
}

// TestTracedAppSurvivesStalledCollector is the backpressure acceptance
// test: a real traced simulation streams into a collector that never
// reads. The application must finish promptly with no sink error; the
// sink buffers then drops, and Dropped reflects the loss.
func TestTracedAppSurvivesStalledCollector(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	sink := pipeSink(client, 16)

	h := newHarness(2, StrategyConfig{}, Config{DisableOverhead: true})
	h.tr.SetSink(sink)
	start := time.Now()
	rep := h.run(t, phasedWriter(100, 1e6, 50*des.Millisecond))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("traced run blocked on stalled collector: %v", elapsed)
	}
	if err := h.tr.SinkErr(); err != nil {
		t.Fatalf("stalled collector surfaced as app error: %v", err)
	}
	if len(rep.BPhases) != 2*100 {
		t.Fatalf("phases = %d, want 200 (tracing degraded the run)", len(rep.BPhases))
	}
	sink.Close()
	if sink.Dropped() == 0 {
		t.Fatal("expected drops with a 16-record buffer and 200 records")
	}
}

// TestSinkCloseReportsDrops pins the Close contract: when records were
// dropped at any point in the sink's lifetime, Close must say so even
// if the final flush succeeds — a clean shutdown does not erase loss.
func TestSinkCloseReportsDrops(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	sink := pipeSink(client, 4)
	// net.Pipe is unbuffered and the peer never reads: flushes time out,
	// batches drop, then the 4-slot ring overflows too.
	for i := 0; i < 100; i++ {
		sink.Emit(StreamRecord{Rank: 0, Phase: i, B: 1})
	}
	// Drain the peer before Close so the final flush can succeed — the
	// error must survive a successful last write.
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	err := sink.Close()
	if err == nil {
		t.Fatalf("Close = nil after %d drops", sink.Dropped())
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("Close error %q does not mention the drops", err)
	}
}

// TestSinkRingDropOldest drives the ring buffer directly (the writer
// goroutine is never started, so the queue state is deterministic):
// overflow drops exactly the oldest records, order is preserved across
// the wrap, and requeue re-inserts an unflushed batch ahead of newer
// records with the same oldest-first trimming.
func TestSinkRingDropOldest(t *testing.T) {
	s := newSink(nil, "")
	s.bufferRecords = 4
	for i := 0; i < 10; i++ {
		if err := s.Emit(StreamRecord{Phase: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	batch, _ := s.takeBatch()
	if len(batch) != 4 {
		t.Fatalf("batch = %d records, want 4", len(batch))
	}
	for i, rec := range batch {
		if rec.Phase != 6+i {
			t.Fatalf("batch[%d].Phase = %d, want %d (oldest-first order lost)", i, rec.Phase, 6+i)
		}
	}
	// Two newer records arrive while the batch is in flight; the dial
	// fails and the batch is requeued. The merged queue exceeds the ring,
	// so the two oldest batch records go.
	s.Emit(StreamRecord{Phase: 10})
	s.Emit(StreamRecord{Phase: 11})
	requeued := append([]StreamRecord(nil), batch...)
	s.requeue(requeued)
	if got := s.Dropped(); got != 8 {
		t.Fatalf("dropped = %d after requeue overflow, want 8", got)
	}
	batch, _ = s.takeBatch()
	want := []int{8, 9, 10, 11}
	if len(batch) != len(want) {
		t.Fatalf("batch = %d records, want %d", len(batch), len(want))
	}
	for i, rec := range batch {
		if rec.Phase != want[i] {
			t.Fatalf("batch[%d].Phase = %d, want %d", i, rec.Phase, want[i])
		}
	}
	// The sink must still report the loss at Close even though the final
	// queue state is clean.
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "dropped 8") {
		t.Fatalf("Close = %v, want the 8-record drop summary", err)
	}
}

// frameServer is a test collector: it accepts connections in a loop and
// decodes their frames through FrameInfo and DecodeFrame, the shared
// decode path, recording every record and the connection it came on.
type frameServer struct {
	ln net.Listener

	mu     sync.Mutex
	conns  int
	recs   []StreamRecord
	byConn map[int]int

	// closeAfterFirstFrame makes connection 1 drop after one frame (the
	// peer-closes-mid-stream scenario).
	closeAfterFirstFrame bool
}

func newFrameServer(t *testing.T, closeAfterFirstFrame bool) *frameServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	return serveFrames(ln, closeAfterFirstFrame)
}

// serveFrames collects the frames of every connection ln accepts until
// ln is closed.
func serveFrames(ln net.Listener, closeAfterFirstFrame bool) *frameServer {
	s := &frameServer{ln: ln, byConn: make(map[int]int), closeAfterFirstFrame: closeAfterFirstFrame}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			id := s.conns
			s.mu.Unlock()
			go s.read(conn, id)
		}
	}()
	return s
}

func (s *frameServer) read(conn net.Conn, id int) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	hdr := make([]byte, FrameHeaderLen)
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return
		}
		payload, _, err := FrameInfo(hdr)
		if err != nil {
			return
		}
		if cap(buf) < FrameHeaderLen+payload {
			buf = make([]byte, FrameHeaderLen+payload)
		}
		buf = buf[:FrameHeaderLen+payload]
		copy(buf, hdr)
		if _, err := io.ReadFull(r, buf[FrameHeaderLen:]); err != nil {
			return
		}
		recs, _, err := DecodeFrame(nil, buf)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.recs = append(s.recs, recs...)
		s.byConn[id] += len(recs)
		first := s.closeAfterFirstFrame && id == 1
		s.mu.Unlock()
		if first {
			return // abrupt close mid-stream
		}
	}
}

func (s *frameServer) snapshot() (conns int, recs []StreamRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns, append([]StreamRecord(nil), s.recs...)
}

// TestSinkBinaryDelivery: the sink delivers every record, in order,
// app-stamped, over pooled frames — and Close is clean when nothing was
// dropped.
func TestSinkBinaryDelivery(t *testing.T) {
	srv := newFrameServer(t, false)
	defer srv.ln.Close()
	sink, err := DialSink(srv.ln.Addr().String(), "bin-run")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := sink.Emit(StreamRecord{Rank: i % 4, Phase: i, B: float64(i)}); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var recs []StreamRecord
	deadline := time.After(3 * time.Second)
	for {
		_, recs = srv.snapshot()
		if len(recs) == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("delivered %d records, want %d", len(recs), n)
		case <-time.After(2 * time.Millisecond):
		}
	}
	for i, rec := range recs {
		if rec.Phase != i || rec.App != "bin-run" || rec.V != StreamVersion {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}

// TestSinkReconnectsAfterPeerClose: the collector drops the connection
// after one record; the sink must redial (with backoff) and keep
// delivering without ever surfacing an error to the emitter.
func TestSinkReconnectsAfterPeerClose(t *testing.T) {
	srv := newFrameServer(t, true)
	defer srv.ln.Close()

	sink := dialFastSink(t, srv.ln.Addr().String())
	defer sink.Close()

	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		if err := sink.Emit(StreamRecord{Rank: 0, Phase: i, B: 1}); err != nil {
			t.Fatalf("emit: %v", err)
		}
		conns, recs := srv.snapshot()
		if conns >= 2 && len(recs) >= 2 {
			srv.mu.Lock()
			second := srv.byConn[2]
			srv.mu.Unlock()
			if second == 0 {
				continue // reconnected but nothing delivered yet
			}
			return // delivered on the second connection: reconnect worked
		}
		select {
		case <-deadline:
			t.Fatalf("no delivery after reconnect: conns=%d records=%d", conns, len(recs))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestSinkBuffersDuringOutage: with the collector fully down (connection
// dead, listener gone), the sink keeps accepting records into its bounded
// buffer; once the collector returns, the surviving buffer is flushed.
func TestSinkBuffersDuringOutage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	addr := ln.Addr().String()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	sink := dialFastSink(t, addr)
	defer sink.Close()

	// Take the collector down: close its side of the connection and stop
	// listening entirely.
	conn := <-accepted
	conn.Close()
	ln.Close()

	// Emit through the outage; every Emit must succeed instantly.
	for i := 0; i < 30; i++ {
		if err := sink.Emit(StreamRecord{Rank: 0, Phase: i, B: 1}); err != nil {
			t.Fatalf("emit during outage: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Bring the collector back on the same address.
	var ln2 net.Listener
	for i := 0; i < 100; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	srv := serveFrames(ln2, false)

	// Probe until the reconnect lands; buffered outage records (phase <
	// 100) must come through with it.
	deadline := time.After(5 * time.Second)
	for i := 100; ; i++ {
		sink.Emit(StreamRecord{Rank: 0, Phase: i, B: 1})
		_, recs := srv.snapshot()
		for _, rec := range recs {
			if rec.Phase < 100 {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("reconnect flush failed: delivered=%d, none from the outage, dropped=%d",
				len(recs), sink.Dropped())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestStreamRecordVersionAndIdentity: emitted records carry the schema
// version and the throughput window of completed transfers.
// TestSinkAppIDStamping covers the App field, which the sink stamps.
func TestStreamRecordVersionAndIdentity(t *testing.T) {
	h := newHarness(1, StrategyConfig{}, Config{DisableOverhead: true})
	sink := &CollectSink{}
	h.tr.SetSink(sink)
	h.run(t, phasedWriter(3, 10e6, des.Second))
	if sink.Len() != 3 {
		t.Fatalf("records = %d", sink.Len())
	}
	for _, rec := range sink.Records {
		if rec.V != StreamVersion {
			t.Fatalf("record version = %d, want %d", rec.V, StreamVersion)
		}
		// 10 MB at 100 MB/s completes long before the 1 s compute phase
		// ends, so the throughput window must be present.
		if rec.T <= 0 || rec.TteSec <= rec.TtsSec {
			t.Fatalf("missing throughput window: %+v", rec)
		}
	}
}

func TestSinkAppIDStamping(t *testing.T) {
	srv := newFrameServer(t, false)
	defer srv.ln.Close()
	sink, err := DialSink(srv.ln.Addr().String(), "wacomm-7")
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(StreamRecord{Rank: 1, B: 5})
	sink.Emit(StreamRecord{App: "explicit", Rank: 2, B: 6}) // pre-set App wins
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for {
		_, recs := srv.snapshot()
		if len(recs) == 2 {
			if recs[0].App != "wacomm-7" || recs[0].V != StreamVersion {
				t.Fatalf("stamped record = %+v", recs[0])
			}
			if recs[1].App != "explicit" {
				t.Fatalf("explicit app overwritten: %+v", recs[1])
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("records = %d, want 2", len(recs))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestStreamRecordDecodeTolerance: records from newer emitters — higher
// version, unknown fields — must decode cleanly, keeping what is known.
func TestStreamRecordDecodeTolerance(t *testing.T) {
	line := `{"v":99,"app":"future","rank":3,"phase":1,"ts":0.5,"te":1.5,"b":42,` +
		`"compression":"zstd","extra":{"nested":true}}`
	var rec StreamRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("future record rejected: %v", err)
	}
	if rec.V != 99 || rec.App != "future" || rec.Rank != 3 || rec.B != 42 {
		t.Fatalf("known fields lost: %+v", rec)
	}
}

// TestSinkSlowReaderDoesNotSlowSimulation: a collector that drains very
// slowly (64 bytes at a time with pauses) must not stretch the traced
// application's wall time — emission is fire-and-forget.
func TestSinkSlowReaderDoesNotSlowSimulation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking available:", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			time.Sleep(time.Millisecond) // deliberately slow drain
		}
	}()

	sink, err := DialSink(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(2, StrategyConfig{}, Config{DisableOverhead: true})
	h.tr.SetSink(sink)
	start := time.Now()
	h.run(t, phasedWriter(20, 1e6, 100*des.Millisecond))
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("slow reader stalled the simulation: %v", elapsed)
	}
	if err := h.tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	sink.Close()
}
