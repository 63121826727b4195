package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"iobehind/internal/gateway"
	"iobehind/internal/region"
	"iobehind/internal/tmio"
)

// The gateway-stream input: streamApps applications of streamRanks ranks
// each. A batch is batchPhases consecutive phases of every rank of one
// app, so batchRecords records. Phase j of a rank has its required-
// bandwidth window inside [j, j+1) virtual seconds, with random start
// and end, so windows of different ranks overlap while one rank's never
// do, and batches never overlap in time. Every bandwidth is a whole
// number of bytes/s: sums of them are exact in float64, so the required
// bandwidth is the same whatever the order in which records are summed.
const (
	streamApps   = 8
	streamRanks  = 64
	batchPhases  = 16
	batchRecords = streamRanks * batchPhases
)

func appName(a int) string { return fmt.Sprintf("app-%d", a) }

// batchSeed mixes the run seed with the batch's coordinates (splitmix64
// finalizer), so every batch can be generated on its own.
func batchSeed(seed int64, app, k int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(app)<<40 ^ uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// genBatch returns batch k of app: phases [k·batchPhases, (k+1)·batchPhases)
// of every rank, phase-major.
func genBatch(seed int64, app, k int) []tmio.StreamRecord {
	rng := rand.New(rand.NewSource(batchSeed(seed, app, k)))
	name := appName(app)
	recs := make([]tmio.StreamRecord, 0, batchRecords)
	for p := 0; p < batchPhases; p++ {
		j := k*batchPhases + p
		for r := 0; r < streamRanks; r++ {
			ts := float64(j) + 0.3*rng.Float64()
			te := float64(j) + 0.7 + 0.3*rng.Float64()
			b := float64(2e8 + rng.Int63n(6e8))
			tts := ts + 0.05
			recs = append(recs, tmio.StreamRecord{
				V: tmio.StreamVersion, App: name, Rank: r, Phase: j,
				TsSec: ts, TeSec: te, B: b,
				BL:     b + float64(rng.Int63n(1e8)),
				T:      float64(1e9 + rng.Int63n(1e9)),
				TtsSec: tts, TteSec: tts + 0.1 + 0.2*rng.Float64(),
			})
		}
	}
	return recs
}

// encodeBatch encodes a batch as one binary frame, or as JSON lines the
// way the tracer's TCP sink writes them.
func encodeBatch(recs []tmio.StreamRecord, binary bool) ([]byte, error) {
	if binary {
		return tmio.AppendFrame(nil, recs)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// batchMax is region.MaxRequired over a batch's B phases. Batches occupy
// disjoint stretches of virtual time, so an app's required bandwidth,
// the max over every phase it sent, is the max of its batches' maxima.
func batchMax(recs []tmio.StreamRecord) float64 {
	phases := make([]region.Phase, len(recs))
	for i, rec := range recs {
		phases[i] = gateway.RecordPhase(rec)
	}
	return region.MaxRequired(phases)
}
