package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"iobehind/internal/experiments"
	"iobehind/internal/runner"
)

// sampleMsgs covers every kind with representative payloads.
func sampleMsgs(t *testing.T) []Msg {
	t.Helper()
	points := experiments.Fig05Experiment(experiments.Quick).Points[:2:2]
	points = append(points, experiments.FigFaultsExperimentSeeded(experiments.Quick, 42).Points...)
	manifest, err := ManifestFor(points)
	if err != nil {
		t.Fatal(err)
	}
	return []Msg{
		{Kind: KindHello, Role: "worker", ID: "w0"},
		{Kind: KindSubmit, ID: "client", Points: manifest},
		{Kind: KindAccepted, Stats: &SweepStats{Points: 2, CacheHits: 1}},
		{Kind: KindGet, Role: "worker", ID: "w0"},
		{Kind: KindLease, Seq: 7, Index: 1, Point: &manifest[1]},
		{Kind: KindIdle, RetryMS: 250},
		{Kind: KindResult, Seq: 7, Index: 1, CacheKey: manifest[1].CacheKey, Bytes: []byte{1, 2, 3}},
		{Kind: KindAck, Seq: 7, Dup: true},
		{Kind: KindSweepDone, Stats: &SweepStats{Points: 2, Computed: 2}},
	}
}

// TestMsgRoundTrip writes and re-reads every message kind, then builds
// each point of the manifest read off the wire from its config alone, as
// a worker does, and requires the cache key the submitter computed — for
// a seeded fault scenario too, whose seed lives only in the config.
func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs(t)
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Kind, err)
		}
	}
	var manifest []ManifestPoint
	for _, want := range msgs {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Index != want.Index ||
			got.Role != want.Role || got.ID != want.ID || got.CacheKey != want.CacheKey ||
			got.Dup != want.Dup || got.RetryMS != want.RetryMS || !bytes.Equal(got.Bytes, want.Bytes) {
			t.Fatalf("round trip of %s changed fields:\n got %+v\nwant %+v", want.Kind, got, want)
		}
		if got.V != ProtocolVersion {
			t.Fatalf("read %s: version %d, want stamped %d", want.Kind, got.V, ProtocolVersion)
		}
		if want.Point != nil && (got.Point == nil || !reflect.DeepEqual(*got.Point, *want.Point)) {
			t.Fatalf("lease point did not survive: %+v", got.Point)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("manifest changed on the wire: %d -> %d points", len(want.Points), len(got.Points))
		}
		if got.Kind == KindSubmit {
			manifest = got.Points
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after reading all messages", buf.Len())
	}
	if len(manifest) != 4 {
		t.Fatalf("read %d manifest points, want 4", len(manifest))
	}
	for _, mp := range manifest {
		p, err := experiments.PointFromJSON(mp.Key, mp.Config)
		if err != nil {
			t.Fatalf("build wire point %s: %v", mp.Key, err)
		}
		ckey, err := runner.CacheKey(p)
		if err != nil || ckey != mp.CacheKey {
			t.Fatalf("wire point %s: built cache key %s (%v), manifest %s", mp.Key, ckey, err, mp.CacheKey)
		}
	}
}

// TestDecodeMsgRejects pins the decoder's strictness: zero value returned
// on every rejection.
func TestDecodeMsgRejects(t *testing.T) {
	encode := func(m Msg) []byte {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[4:] // strip frame prefix
	}
	cases := map[string][]byte{
		"empty":         {},
		"garbage":       []byte("not a gob message at all"),
		"trailing data": append(encode(Msg{Kind: KindGet}), 0x01),
		"unknown kind":  encode(Msg{Kind: KindSweepDone + 1}),
		// gob omits zero fields, so a kindless message decodes fine and
		// must die in validation, not by luck of encoding.
		"zero kind":    encodeRaw(t, Msg{V: ProtocolVersion}),
		"zero version": encodeRaw(t, Msg{Kind: KindGet}),
	}
	for name, payload := range cases {
		m, err := DecodeMsg(payload)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if !isZeroMsg(m) {
			t.Errorf("%s: non-zero message returned on error: %+v", name, m)
		}
	}
}

// TestDecodeMsgVersionGate rejects newer-than-spoken versions.
func TestDecodeMsgVersionGate(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, Msg{Kind: KindGet}); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[4:]
	if _, err := DecodeMsg(payload); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	// Re-encode with a future version by patching the struct directly.
	future := Msg{Kind: KindGet}
	var fb bytes.Buffer
	if err := WriteMsg(&fb, future); err != nil {
		t.Fatal(err)
	}
	// WriteMsg stamps ProtocolVersion; craft the future frame through the
	// decoder's own gob by round-tripping a hand-bumped copy.
	fm, err := ReadMsg(bytes.NewReader(fb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fm.V = ProtocolVersion + 1
	fpayload := encodeRaw(t, fm)
	if _, err := DecodeMsg(fpayload); err == nil || !strings.Contains(err.Error(), "unsupported protocol version") {
		t.Fatalf("future version accepted (err=%v)", err)
	}
}

// TestReadFrameLimits pins the framing edge cases.
func TestReadFrameLimits(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("clean close: got %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn prefix: got %v, want wrapped unexpected EOF", err)
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrameBytes+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	var torn bytes.Buffer
	binary.BigEndian.PutUint32(huge[:], 10)
	torn.Write(huge[:])
	torn.WriteString("short")
	if _, err := ReadFrame(&torn); err == nil {
		t.Fatal("torn payload accepted")
	}
}

// isZeroMsg reports whether m is the zero message (Msg holds slices, so
// == does not apply).
func isZeroMsg(m Msg) bool {
	return reflect.DeepEqual(m, Msg{})
}

// encodeRaw gob-encodes a message without WriteMsg's version stamping.
func encodeRaw(t *testing.T, m Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
