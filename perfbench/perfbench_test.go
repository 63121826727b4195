package main

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"iobehind/internal/gateway"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
)

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, p, k int }{
		{19, 0, 0},     // not even the median has ten above it
		{20, 50, 10},   // the median, exactly ten above
		{85, 88, 75},   // p89 would rank 76th, leaving nine
		{100, 90, 90},  // p91 would leave nine
		{130, 92, 120}, // p93 would rank 121st, leaving nine
		{1000, 99, 990},
		{5000, 99, 4950},
	} {
		p, k := tailRank(tc.n)
		if p != tc.p || k != tc.k {
			t.Errorf("tailRank(%d) = p%d rank %d, want p%d rank %d", tc.n, p, k, tc.p, tc.k)
		}
		if p > 0 && tc.n-k < minBeyond {
			t.Errorf("tailRank(%d) leaves %d beyond, want >= %d", tc.n, tc.n-k, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	s, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.p50 != 50.5 || s.tailP != 90 || s.tail != 90 || s.beyond != 10 || s.n != 100 {
		t.Errorf("summarize(1..100) = %+v, want p50 50.5, p90 = 90 with 10 beyond", s)
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
	if _, err := summarize(xs[:19]); !errors.Is(err, errTooFewSamples) {
		t.Errorf("19 samples: err %v, want errTooFewSamples", err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 10 * ms, Parent: -1, Op: 1},
		{Name: "a", Start: 1 * ms, End: 3 * ms, Parent: 0, Op: 1},
		{Name: "b", Start: 2 * ms, End: 5 * ms, Parent: 0, Op: 1},  // overlaps a: counted once
		{Name: "c", Start: 8 * ms, End: 12 * ms, Parent: 0, Op: 1}, // clipped at the root's end
		{Name: "leaf", Start: 1 * ms, End: 2 * ms, Parent: 1, Op: 1},
		{Name: "a", Start: 20 * ms, End: 21 * ms, Parent: -1, Op: 2},
	}
	want := []time.Duration{4 * ms, 1 * ms, 3 * ms, 4 * ms, 1 * ms, 1 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, i, got[i], want[i])
		}
	}
	r := &recorder{spans: spans}
	if got := r.perOp("a"); len(got) != 2 || got[0] != ms || got[1] != ms {
		t.Errorf("perOp(a) = %v, want [1ms 1ms] (one total per op)", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

func encodeAll(t *testing.T, seed int64) []byte {
	t.Helper()
	var all []byte
	for app := 0; app < streamApps; app++ {
		for k := 0; k < 3; k++ {
			recs := genBatch(seed, app, k)
			for _, binary := range []bool{true, false} {
				b, err := encodeBatch(recs, binary)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, b...)
			}
		}
	}
	return all
}

func TestStreamPayloadsFollowTheSeed(t *testing.T) {
	a, b := encodeAll(t, 7), encodeAll(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different payloads on two calls")
	}
	if bytes.Equal(a, encodeAll(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical payloads")
	}
}

// The gateway must see exactly the generated records, on either
// connection.
func TestStreamPayloadsDecodeToTheBatch(t *testing.T) {
	recs := genBatch(3, 5, 11)
	if len(recs) != batchRecords {
		t.Fatalf("batch holds %d records, want %d", len(recs), batchRecords)
	}
	frame, err := encodeBatch(recs, true)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := tmio.DecodeFrame(nil, frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeFrame: %d of %d bytes, %v", n, len(frame), err)
	}
	lines, err := encodeBatch(recs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(lines, []byte("\n")), []byte("\n")) {
		rec, err := tmio.DecodeStreamRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	for i, rec := range recs {
		if got[i] != rec || got[len(recs)+i] != rec {
			t.Fatalf("record %d: frame %+v, JSON %+v, sent %+v", i, got[i], got[len(recs)+i], rec)
		}
	}
}

// The gateway-stream correctness gate compares against the max of
// per-batch maxima; that must be the offline sweep over the whole stream.
func TestBatchMaxIsTheStreamMax(t *testing.T) {
	var all []region.Phase
	var want float64
	for k := 0; k < 4; k++ {
		recs := genBatch(1, 2, k)
		want = max(want, batchMax(recs))
		for _, rec := range recs {
			all = append(all, gateway.RecordPhase(rec))
		}
	}
	if got := region.MaxRequired(all); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("MaxRequired over the stream = %v, max of batch maxima = %v", got, want)
	}
}
