package tmio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzDecodeStreamRecord hammers the gateway's shared JSON-lines decode
// path with arbitrary bytes. Beyond not panicking, it checks the decode
// contract the ingest loop depends on:
//
//   - errors always come with a zero record (no partially decoded fields
//     can leak into aggregation);
//   - an accepted record survives a marshal/decode round trip unchanged,
//     so re-encoding a stream loses nothing;
//   - whitespace framing never changes the outcome.
func FuzzDecodeStreamRecord(f *testing.F) {
	// A full valid record, as a JSON-lines producer writes it.
	f.Add(`{"v":1,"app":"hacc-run-1","rank":3,"phase":2,"ts":1.5,"te":2.5,"b":1048576,"bl":9.5e5,"t":8e5,"tts":1.6,"tte":2.4}`)
	// Minimal record: omitempty fields absent.
	f.Add(`{"rank":0,"phase":0,"ts":0,"te":0.5,"b":42}`)
	// Truncated mid-object (torn TCP write).
	f.Add(`{"v":1,"rank":3,"phase":2,"ts":1.`)
	// Unknown fields and a future schema version must decode.
	f.Add(`{"v":99,"rank":1,"phase":0,"ts":0,"te":1,"b":7,"future_field":{"x":[1,2]},"note":"hi"}`)
	// Two records on one line: broken framing, must be rejected.
	f.Add(`{"rank":1,"phase":0,"ts":0,"te":1,"b":1}{"rank":2,"phase":0,"ts":0,"te":1,"b":1}`)
	// Wrong JSON shapes.
	f.Add(`[1,2,3]`)
	f.Add(`"just a string"`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`   `)
	f.Add(`{"rank":"not a number"}`)
	// Deep nesting in an ignored field.
	f.Add(`{"rank":1,"x":` + strings.Repeat(`[`, 64) + strings.Repeat(`]`, 64) + `}`)

	f.Fuzz(func(t *testing.T, line string) {
		rec, err := DecodeStreamRecord([]byte(line))
		if err != nil {
			if rec != (StreamRecord{}) {
				t.Fatalf("error %v returned non-zero record %+v", err, rec)
			}
			return
		}
		// Round trip: an accepted record re-encodes and re-decodes to
		// itself, so replaying a stream is lossless.
		encoded, merr := json.Marshal(rec)
		if merr != nil {
			t.Fatalf("accepted record %+v does not re-marshal: %v", rec, merr)
		}
		again, derr := DecodeStreamRecord(encoded)
		if derr != nil {
			t.Fatalf("re-decoding %s failed: %v", encoded, derr)
		}
		if again != rec {
			t.Fatalf("round trip changed record: %+v -> %+v", rec, again)
		}
		// Framing whitespace is irrelevant.
		padded, perr := DecodeStreamRecord([]byte("  \t" + line + "\r\n"))
		if perr != nil || padded != rec {
			t.Fatalf("whitespace padding changed outcome: rec=%+v err=%v", padded, perr)
		}
	})
}

// FuzzDecodeFrame hammers the binary frame decoder — the gateway's
// other ingest decode path — with arbitrary bytes. The contract checked
// mirrors FuzzDecodeStreamRecord's, plus the frame-specific invariants:
//
//   - errors always leave the caller's slice at its original length and
//     consume zero bytes (no partially decoded batch can leak into
//     aggregation, and a reader cannot mis-resync);
//   - an accepted frame's records survive an encode/decode round trip
//     exactly;
//   - a successful decode consumes exactly header + payload bytes, so
//     back-to-back frames in one buffer parse sequentially;
//   - truncating an accepted frame by one byte never decodes.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frames of several shapes.
	for _, n := range []int{0, 1, 3} {
		recs := make([]StreamRecord, n)
		for i := range recs {
			recs[i] = StreamRecord{V: 1, App: "fuzz", Rank: i, Phase: i,
				TsSec: float64(i), TeSec: float64(i) + 1, B: 42, Faulty: i%2 == 0, Retries: i}
		}
		buf, err := EncodeFrame(recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Truncated prefix (torn mid-header and mid-payload).
	whole, err := EncodeFrame([]StreamRecord{{V: 1, App: "torn", B: 7}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole[:5])
	f.Add(whole[:len(whole)-2])
	// Length overflow: payload length claims far more than the buffer.
	huge := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(huge[4:8], MaxFramePayload)
	f.Add(huge)
	// Version skew on the frame layout.
	skew := append([]byte(nil), whole...)
	skew[2] = FrameVersion + 3
	f.Add(skew)
	// JSON on the binary path and raw noise.
	f.Add([]byte(`{"rank":1,"phase":0,"ts":0,"te":1,"b":1}`))
	f.Add([]byte{frameMagic0, frameMagic1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		prior := []StreamRecord{{App: "sentinel", Rank: 9}}
		recs, n, err := DecodeFrame(prior, data)
		if err != nil {
			if len(recs) != len(prior) || n != 0 {
				t.Fatalf("error %v appended records (len %d) or consumed %d bytes", err, len(recs), n)
			}
			return
		}
		if recs[0] != prior[0] {
			t.Fatalf("decode clobbered the caller's existing records: %+v", recs[0])
		}
		decoded := recs[len(prior):]
		if n < FrameHeaderLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// Round trip: re-encoding the accepted records and decoding again
		// must reproduce them exactly (re-encode may be shorter than the
		// input when the input carried future fields).
		enc, err := AppendFrame(nil, decoded)
		if err != nil {
			t.Fatalf("accepted records %+v do not re-encode: %v", decoded, err)
		}
		again, n2, err := DecodeFrame(nil, enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-decode failed: n=%d err=%v", n2, err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round trip changed record count: %d -> %d", len(decoded), len(again))
		}
		for i := range again {
			if !sameRecordBits(again[i], decoded[i]) {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, decoded[i], again[i])
			}
		}
		// A frame shortened by one byte must not decode (no silent
		// acceptance of torn frames).
		if _, _, err := DecodeFrame(nil, bytes.Clone(data[:n-1])); err == nil {
			t.Fatal("frame truncated by one byte still decoded")
		}
	})
}

// sameRecordBits compares records field-for-field with floats compared
// by bit pattern: the binary codec is bit-exact, and fuzzing produces
// NaN payloads for which == is always false.
func sameRecordBits(a, b StreamRecord) bool {
	sameF := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.V == b.V && a.App == b.App && a.Rank == b.Rank && a.Phase == b.Phase &&
		a.Faulty == b.Faulty && a.Retries == b.Retries &&
		sameF(a.TsSec, b.TsSec) && sameF(a.TeSec, b.TeSec) && sameF(a.B, b.B) &&
		sameF(a.BL, b.BL) && sameF(a.T, b.T) && sameF(a.TtsSec, b.TtsSec) && sameF(a.TteSec, b.TteSec)
}
