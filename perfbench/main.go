// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock window and prints its metrics, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (each is generated from --seed; the same seed gives the same
// inputs). For each: what one op is, what a query is, and the unit of
// throughput_per_s (work per second of timed op time).
//
//   - sweep-quick: one op is one round of the full quick-scale figure
//     plan through a two-worker runner, then every experiment's Assemble
//     and Render; the query is that Assemble+Render pass alone
//     (re-rendering every figure from results); throughput is points/s.
//     Every round must render byte-identically to the serial reference
//     round taken during set-up.
//   - hacc-scale: one op is one traced 384-rank HACC-IO simulation
//     through the iobehind facade; the query is its post-run analysis
//     (Tracer.Report plus the B, T and B_L series); throughput is
//     rank-phases/s. Every op must yield the same report digest.
//   - gateway-stream: one op is one 1024-record batch, written by a
//     closed-loop producer alternately as a binary frame and as JSON
//     lines on two loopback connections to an in-process gateway, timed
//     until the gateway shows it; the query is the scheduler poll that
//     follows every eighth batch; throughput is records/s. At the end
//     every record must be aggregated and each app's required bandwidth
//     must equal region.MaxRequired over the phases sent.
//
// With --trace 0 the JSON carries the end-to-end metrics of the chosen
// workload. With --trace 1 the run instead measures every layer: it runs
// all three workloads for a third of the window each, alternating
// untraced and traced ops, records a span around each call into a
// layer's public API, writes the spans to
// $CARGO_TARGET_DIR/spans/<workload>-seed<seed>.jsonl (default
// .bench_build), and prints the per-layer metrics plus each workload's
// tracing overhead (traced minus untraced median op time).
// The deterministic per-layer counts (des, mpiio, adio, tmio phases,
// region points, runner points, gateway records per op) must repeat
// exactly in every traced op, or the run is reported incorrect.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hacc-scale --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minOps is the fewest timed ops a run takes, whatever the window: the
// tail percentile needs minBeyond samples above it and the median as
// many again below.
const minOps = 2 * minBeyond

// setupRepeats is how many times each workload sets up; setup_s is the
// median, which the cold first repetition does not move.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload runs with.
type config struct {
	seed   int64
	window time.Duration // how long the timed loop runs (at least minOps ops)
	// traced selects the traced run: ops alternate untraced and traced,
	// spans go to rec, and the workload fills outcome.layers.
	traced bool
	rec    *recorder
}

// tracer returns the recorder op i reports to: in the traced run, ops
// alternate in pairs between untraced and traced, so the tracing
// overhead is measured side by side; nil otherwise.
func (c config) tracer(i int) *recorder {
	if c.traced && i%4 >= 2 {
		return c.rec
	}
	return nil
}

// outcome is one workload run's raw measurements.
type outcome struct {
	setups    []time.Duration // one per set-up repetition
	ops       []time.Duration // untraced op latencies
	traced    []time.Duration // traced op latencies (traced run only)
	queries   []time.Duration
	work      float64 // units of work the untraced ops completed
	workUnit  string
	attempted int64
	failed    int64
	problems  []string          // correctness failures
	layers    map[string]metric // per-layer metrics (traced run only)
	notes     []string          // digests and sizes, printed before the result
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) layer(name string, value float64, unit string) {
	if o.layers == nil {
		o.layers = map[string]metric{}
	}
	o.layers[name] = metric{Value: value, Unit: unit}
}

// workloads maps each name to its runner, in the order the traced run
// visits them.
var workloads = []struct {
	name string
	run  func(config) (*outcome, error)
}{
	{"sweep-quick", runSweep},
	{"hacc-scale", runHacc},
	{"gateway-stream", runGateway},
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: sweep-quick, hacc-scale or gateway-stream")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()

	known := false
	for _, w := range workloads {
		known = known || w.name == *workload
	}
	if !known || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload sweep-quick|hacc-scale|gateway-stream, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// Pin the scheduler to the CPUs this process may use; workloads use
	// at most two workers on top of that.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, *secs, *trace, runtime.GOMAXPROCS(0))

	window := time.Duration(*secs) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*workload, *seed, window)
	} else {
		res, err = endToEndRun(*workload, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndRun measures one workload untraced.
func endToEndRun(name string, seed int64, window time.Duration) (*result, error) {
	var o *outcome
	var err error
	for _, w := range workloads {
		if w.name == name {
			o, err = w.run(config{seed: seed, window: window})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.collect(o)
	setup := medianOf(seconds(o.setups))
	opSum, err := summarize(millis(o.ops))
	if err != nil {
		return nil, fmt.Errorf("%s ops: %w", name, err)
	}
	qSum, err := summarize(millis(o.queries))
	if err != nil {
		return nil, fmt.Errorf("%s queries: %w", name, err)
	}
	throughput := o.work / sum(o.ops).Seconds()
	res.put("setup_s", setup, "s")
	res.put("op_p50_ms", opSum.p50, "ms")
	res.put("op_tail_ms", opSum.tail, "ms")
	res.put("throughput_per_s", throughput, "1/s")
	res.put("query_p50_ms", qSum.p50, "ms")
	res.put("query_tail_ms", qSum.tail, "ms")
	res.put("peak_rss_mb", peakRSSMB(), "MiB")

	for _, n := range o.notes {
		fmt.Println(n)
	}
	fmt.Printf("setup: %d repeats, median %.4f s\n", len(o.setups), setup)
	fmt.Printf("op: n=%d p50=%.4f ms p%d=%.4f ms (%d samples beyond)\n", opSum.n, opSum.p50, opSum.tailP, opSum.tail, opSum.beyond)
	fmt.Printf("query: n=%d p50=%.4f ms p%d=%.4f ms (%d samples beyond)\n", qSum.n, qSum.p50, qSum.tailP, qSum.tail, qSum.beyond)
	fmt.Printf("throughput: %.1f %s/s\n", throughput, o.workUnit)
	res.print()
	return res, nil
}

// tracedRun measures every layer: each workload runs for a third of the
// window, and the per-layer metrics of all three are reported together.
func tracedRun(name string, seed int64, window time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		rec := newRecorder()
		o, err := w.run(config{seed: seed, window: window / 3, traced: true, rec: rec})
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		res.collect(o)
		for _, n := range o.notes {
			fmt.Println(n)
		}
		for k, m := range o.layers {
			res.Metrics[k] = m
		}
		path := filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("%s: %d spans written to %s\n", w.name, len(rec.spans), path)
	}
	fmt.Printf("traced run for %s covers all workloads\n", name)
	res.print()
	return res, nil
}

// collect folds an outcome's counts and correctness into the result.
func (r *result) collect(o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	for _, p := range o.problems {
		fmt.Printf("INCORRECT: %s\n", p)
		r.Correct = false
	}
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print lists every metric by name and unit, sorted.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// measure calls op(i) for i = 0, 1, … until the window has passed and
// at least minN ops have run; op's error stops the loop and is returned.
func measure(window time.Duration, minN int, op func(i int) error) error {
	start := time.Now()
	for i := 0; time.Since(start) < window || i < minN; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// buildDir is where run artifacts go: $CARGO_TARGET_DIR or .bench_build,
// relative to the working directory (the checkout's root).
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workers is the pool size every parallel workload uses.
func workers() int { return min(2, runtime.NumCPU()) }
