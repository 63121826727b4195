package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder's epoch
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 at the root
	Op     int           `json:"op"`     // the op the span belongs to
}

// recorder keeps a run's spans in memory until the run ends. A nil
// *recorder records nothing, so untraced ops pay one nil check per span.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children (parallel workers) are
// counted once, and a child reaching outside its parent is clipped.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range kids[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		self[i] = s.End - s.Start - covered(ivs)
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// perOp sums the self time of the spans called name within each op and
// returns one total per op that has such a span, in op order.
func (r *recorder) perOp(name string) []time.Duration {
	self := selfTimes(r.spans)
	byOp := map[int]time.Duration{}
	for i, s := range r.spans {
		if s.Name == name {
			byOp[s.Op] += self[i]
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]time.Duration, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// medianMs is the median over ops of perOp(name), in milliseconds.
func (r *recorder) medianMs(name string) float64 { return medianOf(millis(r.perOp(name))) }

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
