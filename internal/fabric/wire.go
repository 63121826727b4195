// Package fabric turns the single-process sweep runner into a small job
// fabric: a coordinator that leases manifest points to pull-based
// workers over TCP, re-dispatches expired leases, and keeps every
// accepted result in the runner's content-addressed cache — the one
// result store, which a restarted coordinator resumes from.
//
// The design leans entirely on one property, enforced by iolint's
// cachekey/walltime rules: every sweep point is a pure function of its
// configuration. That is what makes remote execution sound (a worker's
// result is the submitter's result), duplicate completions benign (the
// bytes are identical, the first one wins and is the one stored), and
// cache sharing safe (a hit is indistinguishable from a run).
//
// Unlike the simulation packages, fabric legitimately reads the wall
// clock: lease deadlines, reconnect backoff, and worker liveness are
// properties of real machines, not of the simulated cluster, and none of
// them can influence a point's result. That is why internal/fabric is
// deliberately absent from iolint's walltime rule, while every config
// that enters a manifest is a runner.Point's first and stays under the
// cachekey rule.
package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the fabric wire-protocol version. A peer speaking a
// newer version is rejected at decode time: lease contents are trusted
// to re-execute bit-identically, so silent cross-version tolerance is a
// hazard, not a feature. Version 2 ships each point's config instead
// of a figure reference for the worker to re-enumerate.
const ProtocolVersion = 2

// MaxFrameBytes bounds one frame (4-byte big-endian length prefix +
// payload). Submit frames carry a whole manifest; result frames carry
// one gob-encoded report. 64 MiB is two orders of magnitude above the
// largest paper-scale sweep while still refusing absurd lengths from a
// confused or hostile peer before allocating.
const MaxFrameBytes = 64 << 20

// Kind discriminates wire messages.
type Kind uint8

const (
	// KindHello opens every connection: Role "worker" or "client", ID
	// names the peer for leases and logs.
	KindHello Kind = iota + 1
	// KindSubmit (client → coordinator) carries a sweep manifest.
	KindSubmit
	// KindAccepted (coordinator → client) acknowledges a submission;
	// Stats holds the initial cache-hit count.
	KindAccepted
	// KindGet (worker → coordinator) requests one lease.
	KindGet
	// KindLease (coordinator → worker) grants a point: Seq identifies
	// the lease, Index the point, Point the manifest entry.
	KindLease
	// KindIdle (coordinator → worker) reports no pending work; RetryMS
	// hints when to ask again.
	KindIdle
	// KindResult carries one completed point: worker → coordinator with
	// Seq/Index/CacheKey and either Bytes or Err; coordinator → client
	// with Index and the same payload.
	KindResult
	// KindAck (coordinator → worker) confirms a result was recorded;
	// Dup marks a duplicate completion (another worker was first).
	KindAck
	// KindSweepDone (coordinator → client) closes a sweep; Stats is the
	// final accounting.
	KindSweepDone
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindSubmit:
		return "submit"
	case KindAccepted:
		return "accepted"
	case KindGet:
		return "get"
	case KindLease:
		return "lease"
	case KindIdle:
		return "idle"
	case KindResult:
		return "result"
	case KindAck:
		return "ack"
	case KindSweepDone:
		return "sweepdone"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ManifestPoint is one sweep point as it travels the wire: its key, its
// config, from which a worker builds it (experiments.PointFromJSON), and
// the submitter-computed content address of its result.
type ManifestPoint struct {
	Key string
	// Config is the point config's canonical JSON, the bytes
	// runner.CacheKey hashes.
	Config []byte
	// CacheKey is runner.CacheKey of the point, computed by the
	// submitter. Workers recompute it from the point they build and
	// refuse to run on mismatch.
	CacheKey string
}

// SweepStats is a sweep's accounting, reported in KindAccepted (initial)
// and KindSweepDone (final) messages and exposed on /metrics.
type SweepStats struct {
	Points       int // manifest size
	Computed     int // results produced by workers this sweep
	CacheHits    int // points served from the cache at submit
	Redispatches int // leases that expired and were re-queued
	Duplicates   int // completions that arrived after another worker's
	Mismatches   int // duplicate completions whose bytes differed (determinism violation)
	Errors       int // points that completed with an error
}

// Msg is the fabric's single wire message. One struct for every kind
// keeps the decoder single (and fuzzable); unused fields stay zero and
// cost nothing in gob, which omits zero values.
type Msg struct {
	V    int
	Kind Kind

	Role     string          // hello: "worker" or "client"
	ID       string          // hello: peer name
	Seq      uint64          // lease: lease id; result: echoed lease id
	Index    int             // lease/result: point index in the manifest
	CacheKey string          // result (from worker): content address of the point
	Point    *ManifestPoint  // lease: the granted point
	Points   []ManifestPoint // submit: the manifest
	Bytes    []byte          // result: content-addressed entry bytes
	Err      string          // result: point error; accepted: rejection reason
	Cached   bool            // result (to client): served from the cache
	Dup      bool            // ack: duplicate completion
	RetryMS  int             // idle: backoff hint
	Stats    *SweepStats     // accepted/sweepdone
}

// ErrFrameTooLarge reports a length prefix beyond MaxFrameBytes.
var ErrFrameTooLarge = errors.New("fabric: frame exceeds size limit")

// ReadFrame reads one length-prefixed frame payload from r. io.EOF is
// returned verbatim for a clean close before the prefix; a close mid-
// frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("fabric: read frame prefix: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 {
		return nil, errors.New("fabric: zero-length frame")
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("fabric: read frame payload: %w", err)
	}
	return payload, nil
}

// DecodeMsg parses one frame payload — the single decode path shared by
// the coordinator, workers, clients, tests, and the fuzzer, in the style
// of tmio.DecodeStreamRecord. On error the returned message is always
// the zero value, never a partially decoded one. A message is rejected
// when it is not exactly one gob value, when its version is newer than
// this binary speaks, or when its kind is unknown — the fabric re-
// executes lease contents, so "tolerate and guess" is the wrong default.
func DecodeMsg(payload []byte) (Msg, error) {
	reader := bytes.NewReader(payload)
	var m Msg
	if err := gob.NewDecoder(reader).Decode(&m); err != nil {
		return Msg{}, fmt.Errorf("fabric: decode message: %w", err)
	}
	if reader.Len() != 0 {
		return Msg{}, errors.New("fabric: decode message: trailing data after message")
	}
	if m.V < 1 || m.V > ProtocolVersion {
		return Msg{}, fmt.Errorf("fabric: unsupported protocol version %d (speaking %d)", m.V, ProtocolVersion)
	}
	if m.Kind < KindHello || m.Kind > KindSweepDone {
		return Msg{}, fmt.Errorf("fabric: unknown message kind %d", m.Kind)
	}
	return m, nil
}

// WriteMsg frames and writes one message. The version is stamped here so
// call sites cannot forget it.
func WriteMsg(w io.Writer, m Msg) error {
	m.V = ProtocolVersion
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length prefix placeholder
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("fabric: encode %s message: %w", m.Kind, err)
	}
	payload := buf.Bytes()
	n := len(payload) - 4
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(payload[:4], uint32(n))
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("fabric: write %s message: %w", m.Kind, err)
	}
	return nil
}

// ReadMsg reads and decodes one message.
func ReadMsg(r io.Reader) (Msg, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Msg{}, err
	}
	return DecodeMsg(payload)
}
