// Benchmarks regenerating every figure of the paper's evaluation section.
// One benchmark per figure; figures sharing an experiment (1+2, 5+6) share
// a benchmark. Key quantities are attached as custom benchmark metrics so
// `go test -bench=. -benchmem` prints the paper's headline numbers next to
// the timings.
//
// By default the benchmarks run the Quick scale (seconds). Set
//
//	IOBEHIND_SCALE=paper go test -bench=Fig -benchtime=1x
//
// to run the paper's configurations (up to 9216 ranks; the largest runs
// take minutes each).
package iobehind_test

import (
	"context"
	"os"
	"runtime"
	"testing"

	"iobehind/internal/experiments"
	"iobehind/internal/runner"
	"iobehind/internal/tmio"
)

// benchScale picks the experiment scale from the environment.
func benchScale() experiments.Scale {
	if os.Getenv("IOBEHIND_SCALE") == "paper" {
		return experiments.Paper
	}
	return experiments.Quick
}

// runFig runs exp serially and returns the assembled figure as T.
func runFig[T experiments.Renderer](tb testing.TB, exp *experiments.Experiment) T {
	tb.Helper()
	res, err := experiments.RunExperiment(context.Background(), runner.Serial(), exp)
	if err != nil {
		tb.Fatal(err)
	}
	v, ok := res.(T)
	if !ok {
		tb.Fatalf("figure %s assembled a %T", exp.Fig, res)
	}
	return v
}

// BenchmarkFig01ClusterRuntimes regenerates Figs. 1 and 2: the eight-job
// scenario with and without contention-only limiting of the async job.
// Metrics: mean sync-job speedup (%) and async-job slowdown (%).
func BenchmarkFig01ClusterRuntimes(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.ClusterResult](b, experiments.Fig01Experiment(scale))
		var syncGain, asyncCost float64
		var syncJobs int
		for j := range res.Base.Jobs {
			base, lim := res.Base.Jobs[j], res.Limited.Jobs[j]
			delta := 100 * (base.Runtime().Seconds() - lim.Runtime().Seconds()) /
				base.Runtime().Seconds()
			if base.Async {
				asyncCost = -delta
			} else {
				syncGain += delta
				syncJobs++
			}
		}
		b.ReportMetric(syncGain/float64(syncJobs), "sync-speedup-%")
		b.ReportMetric(asyncCost, "async-cost-%")
	}
}

// BenchmarkFig02ClusterBandwidth regenerates the Fig. 2 bandwidth series
// (same runs as Fig. 1; metric: peak aggregate write bandwidth of the
// async job, GB/s, in the unrestricted case).
func BenchmarkFig02ClusterBandwidth(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.ClusterResult](b, experiments.Fig01Experiment(scale))
		var asyncPeak float64
		for j, s := range res.Base.Bandwidth {
			if res.Base.Jobs[j].Async {
				asyncPeak = s.Max()
			}
		}
		b.ReportMetric(asyncPeak/1e9, "async-burst-GB/s")
	}
}

// BenchmarkFig05HaccRuntime regenerates Fig. 5: HACC-IO total/app/overhead
// runtime over the rank sweep. Metric: worst-case tracing overhead share
// (the paper bounds it at 9%).
func BenchmarkFig05HaccRuntime(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.HaccRuntimeResult](b, experiments.Fig05Experiment(scale))
		b.ReportMetric(res.MaxOverheadShare(), "max-overhead-%")
		small, large := res.RequiredBandwidthGrowth()
		b.ReportMetric(large/small, "B-growth-x")
	}
}

// BenchmarkFig06HaccDistribution regenerates Fig. 6 (same sweep as
// Fig. 5). Metric: the largest peri-runtime overhead share — the paper
// reports it below 0.1%.
func BenchmarkFig06HaccDistribution(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.HaccRuntimeResult](b, experiments.Fig05Experiment(scale))
		var maxPeri float64
		for _, row := range res.Rows {
			if d := row.Report.Distribution(); d.OverheadPeri > maxPeri {
				maxPeri = d.OverheadPeri
			}
		}
		b.ReportMetric(maxPeri, "max-peri-%")
	}
}

// BenchmarkFig07WacommDistribution regenerates Fig. 7: the WaComM++ time
// distribution under direct(tol=2), up-only(tol=1.1), and no limiting.
// Metrics: mean exploit share per strategy.
func BenchmarkFig07WacommDistribution(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.WacommDistResult](b, experiments.Fig07Experiment(scale))
		b.ReportMetric(res.MeanExploit(tmio.Direct), "exploit-direct-%")
		b.ReportMetric(res.MeanExploit(tmio.UpOnly), "exploit-uponly-%")
		b.ReportMetric(res.MeanExploit(tmio.None), "exploit-none-%")
	}
}

// BenchmarkFig08Wacomm96NoLimit regenerates Fig. 8: unthrottled WaComM++
// at 96 ranks. Metric: burst-to-requirement ratio of the throughput peak.
func BenchmarkFig08Wacomm96NoLimit(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.SeriesResult](b, experiments.Fig08Experiment(scale))
		b.ReportMetric(res.T.Max()/res.Report.RequiredBandwidth, "burst-over-B-x")
	}
}

// BenchmarkFig09Wacomm96UpOnly regenerates Fig. 9: WaComM++ with the
// up-only strategy; T follows the previous phase's B_L. Metric: ratio of
// the throttled throughput peak to the applied-limit peak (≈1 when T
// tracks B_L).
func BenchmarkFig09Wacomm96UpOnly(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.SeriesResult](b, experiments.Fig09Experiment(scale))
		var blPeak float64
		for _, ph := range res.Report.BLPhases {
			if ph.Value > blPeak {
				blPeak = ph.Value
			}
		}
		if blPeak > 0 {
			b.ReportMetric(res.ThrottledPeak()/blPeak, "T-over-BL-x")
		}
	}
}

// BenchmarkFig10Wacomm9216 regenerates Fig. 10: the large-scale WaComM++
// comparison. Metrics: the limited run's speedup (paper: ≈11.6%) and the
// exploit shares (paper: 57% vs 3.9%).
func BenchmarkFig10Wacomm9216(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.Fig10Result](b, experiments.Fig10Experiment(scale))
		b.ReportMetric(res.Speedup(), "speedup-%")
		b.ReportMetric(res.UpOnly.Report.Distribution().ExploitTotal(), "exploit-uponly-%")
		b.ReportMetric(res.None.Report.Distribution().ExploitTotal(), "exploit-none-%")
	}
}

// BenchmarkFig11HaccDistribution regenerates Fig. 11: HACC-IO under all
// three strategies and without limiting. Metric: exploit per strategy.
func BenchmarkFig11HaccDistribution(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.HaccDistResult](b, experiments.Fig11Experiment(scale))
		exploit := res.ExploitByStrategy()
		b.ReportMetric(exploit[tmio.Direct], "exploit-direct-%")
		b.ReportMetric(exploit[tmio.UpOnly], "exploit-uponly-%")
		b.ReportMetric(exploit[tmio.Adaptive], "exploit-adaptive-%")
		b.ReportMetric(exploit[tmio.None], "exploit-none-%")
	}
}

// BenchmarkFig13Hacc9216Series regenerates Fig. 13: the HACC-IO strategy
// time series. Metric: burst-flattening factor — the unlimited run's
// throughput peak over the worst throttled peak.
func BenchmarkFig13Hacc9216Series(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.Fig13Result](b, experiments.Fig13Experiment(scale))
		unlimited := res.Runs[len(res.Runs)-1].BurstPeak()
		var worstThrottled float64
		for _, run := range res.Runs[:len(res.Runs)-1] {
			if p := run.ThrottledPeak(); p > worstThrottled {
				worstThrottled = p
			}
		}
		if worstThrottled > 0 {
			b.ReportMetric(unlimited/worstThrottled, "flattening-x")
		}
	}
}

// BenchmarkFig14Hacc1536Direct regenerates Fig. 14: the direct strategy on
// a noisy file system, where I/O variability causes short waits. Metric:
// visible waiting share (>0, unlike the noise-free runs).
func BenchmarkFig14Hacc1536Direct(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res := runFig[*experiments.SeriesResult](b, experiments.Fig14Experiment(scale))
		d := res.Report.Distribution()
		b.ReportMetric(d.AsyncWriteLost+d.AsyncReadLost, "lost-%")
	}
}

// --- Sweep benchmarks: serial vs parallel vs warm cache -----------------
//
// The whole suite is one flat list of independent simulation points
// (figure × strategy × rank count), which is what internal/runner fans
// across a worker pool. Compare
//
//	go test -bench=Sweep -benchtime=1x
//
// on a multi-core machine: SweepParallel divides SweepSerial's wall time
// by roughly min(workers, points-in-flight), and SweepWarmCache replaces
// computation with gob decoding. All three produce identical results —
// TestConcurrentSweepMatchesSerialRender in internal/runner asserts the
// rendered bytes match.

// sweepPoints enumerates every distinct figure's points at the bench scale.
func sweepPoints(b *testing.B) []runner.Point {
	b.Helper()
	plan, err := experiments.BuildPlan(nil, benchScale(), 0)
	if err != nil {
		b.Fatal(err)
	}
	return plan.Points
}

// runSweep executes the suite's points through r and fails on any point error.
func runSweep(b *testing.B, r *runner.Runner, points []runner.Point) []runner.Result {
	b.Helper()
	results, err := r.Run(context.Background(), points)
	if err != nil {
		b.Fatal(err)
	}
	if err := runner.FirstErr(results); err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkSweepSerial is the baseline: every point of every figure, one
// worker, no cache — the historical execution order.
func BenchmarkSweepSerial(b *testing.B) {
	points := sweepPoints(b)
	for i := 0; i < b.N; i++ {
		runSweep(b, runner.Serial(), points)
	}
	b.ReportMetric(float64(len(points)), "points")
}

// BenchmarkSweepParallel fans the same points across GOMAXPROCS workers.
// Wall time shrinks with core count; the results are identical.
func BenchmarkSweepParallel(b *testing.B) {
	points := sweepPoints(b)
	for i := 0; i < b.N; i++ {
		runSweep(b, runner.New(runner.Options{}), points)
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkSweepWarmCache measures a re-run against a fully warmed disk
// cache: every point is served by hashing its config and gob-decoding the
// stored result, no simulation at all.
func BenchmarkSweepWarmCache(b *testing.B) {
	cache, err := runner.OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	points := sweepPoints(b)
	r := runner.New(runner.Options{Cache: cache})
	runSweep(b, r, points) // warm the cache outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runSweep(b, r, points)
		if got := runner.CachedCount(results); got != len(points) {
			b.Fatalf("only %d/%d points served from cache", got, len(points))
		}
	}
	b.ReportMetric(float64(len(points)), "points")
}
