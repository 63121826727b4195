package tmio

import (
	"net"
	"testing"
	"time"
)

// TestRedialRateBounded pins the reconnect backoff: against a dead
// collector the writer redials on a doubling, jittered backoff, so an
// unreachable address costs a handful of attempts over half a second,
// not a hot spin of thousands of dials.
func TestRedialRateBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port is now dead: every dial fails fast

	s := newSink(nil, "")
	s.bufferRecords = 8
	s.dialTimeout = 100 * time.Millisecond
	s.addr = addr
	s.start()
	if err := s.Emit(StreamRecord{Rank: 1, B: 1e6}); err != nil {
		t.Fatal(err)
	}

	time.Sleep(600 * time.Millisecond)
	dials := s.dials.Load()
	s.Close()

	if dials < 1 {
		t.Fatal("writer never attempted to dial the collector")
	}
	// The 50 ms doubling backoff allows at most ~6 attempts in 600 ms
	// even with maximal -50% jitter; a hot spin would make thousands.
	if dials > 12 {
		t.Fatalf("%d dials in 600ms — redial backoff is not bounding the rate", dials)
	}
}
