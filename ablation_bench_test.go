// Ablation benchmarks for the design choices called out in DESIGN.md:
// phase-end rule, per-request aggregation, sub-request size, tolerance,
// the hiccup (unpaced-I/O interference) model, and deficit carrying.
// Each benchmark reports the quantity the choice trades off.
package iobehind_test

import (
	"testing"

	"iobehind"
	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/mpiio"
	"iobehind/internal/pfs"
	"iobehind/internal/tmio"
	"iobehind/internal/workloads"
)

// multiRequestB runs a two-requests-per-phase kernel and returns the
// measured B of the first phase under the given tracer options.
func multiRequestB(b *testing.B, phaseEnd tmio.PhaseEndRule, agg tmio.Aggregation) float64 {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: 1})
	fs := pfs.New(e, pfs.LichtenbergConfig())
	sys := mpiio.NewSystem(w, fs, adio.Config{})
	tr := tmio.Attach(sys, tmio.StrategyConfig{}, tmio.Config{
		PhaseEnd: phaseEnd, Aggregation: agg, DisableOverhead: true,
	})
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "x")
		q1 := f.IwriteAt(0, 100<<20)
		q2 := f.IwriteAt(0, 100<<20)
		r.Compute(des.Second)
		q1.Wait()
		r.Compute(des.Second)
		q2.Wait()
	}); err != nil {
		b.Fatal(err)
	}
	rep := tr.Report()
	if len(rep.BPhases) == 0 {
		b.Fatal("no phases")
	}
	return rep.BPhases[0].Value
}

// BenchmarkAblationPhaseEndRule compares the first-wait (default, higher
// B) and last-wait phase-end rules of Sec. IV-A.
func BenchmarkAblationPhaseEndRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		first := multiRequestB(b, tmio.FirstWait, tmio.Sum)
		last := multiRequestB(b, tmio.LastWait, tmio.Sum)
		b.ReportMetric(first/1e6, "B-firstwait-MB/s")
		b.ReportMetric(last/1e6, "B-lastwait-MB/s")
		b.ReportMetric(first/last, "first-over-last-x")
	}
}

// BenchmarkAblationAggregation compares summing vs averaging the
// per-request bandwidths (the paper sums for higher, safer values).
func BenchmarkAblationAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := multiRequestB(b, tmio.FirstWait, tmio.Sum)
		avg := multiRequestB(b, tmio.FirstWait, tmio.Average)
		b.ReportMetric(sum/avg, "sum-over-avg-x")
	}
}

// BenchmarkAblationSubRequestSize sweeps the throttling granularity. The
// duty-cycle limiter moves each sub-request at full file-system speed and
// sleeps the rest, so larger sub-requests mean longer full-speed bursts —
// coarser traffic shaping (metric: the longest contiguous active-transfer
// segment) — while smaller ones cost more simulation events (visible in
// ns/op).
func BenchmarkAblationSubRequestSize(b *testing.B) {
	for _, size := range []int64{1 << 20, 8 << 20, 64 << 20} {
		size := size
		name := map[int64]string{1 << 20: "1MiB", 8 << 20: "8MiB", 64 << 20: "64MiB"}[size]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := des.NewEngine(1)
				fs := pfs.New(e, pfs.Config{WriteCapacity: 1e9, ReadCapacity: 1e9})
				a := adio.NewAgent(e, fs, nil, adio.Config{SubRequestSize: size})
				var burst des.Duration
				e.Spawn("app", func(p *des.Proc) {
					a.SetLimit(100e6)
					for j := 0; j < 10; j++ {
						req := a.Submit(pfs.Write, 200<<20, true)
						req.Wait(p)
						for _, seg := range req.Stats.Segments {
							if seg.Duration() > burst {
								burst = seg.Duration()
							}
						}
					}
					a.Close()
				})
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(burst.Seconds()*1000, "max-burst-ms")
			}
		})
	}
}

// BenchmarkAblationTolerance sweeps the direct strategy's tolerance: low
// tolerance risks waiting, high tolerance wastes exploitation.
func BenchmarkAblationTolerance(b *testing.B) {
	for _, tol := range []float64{1.0, 1.1, 1.5, 2.0} {
		tol := tol
		b.Run(formatTol(tol), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := iobehind.NewSim(iobehind.Options{
					Ranks:    16,
					Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: tol},
					Tracer:   iobehind.TracerConfig{DisableOverhead: true},
				})
				rep, err := sim.Run(iobehind.HaccMain(sim.IO, iobehind.HaccConfig{
					Loops:            5,
					ParticlesPerRank: 2_000_000,
					FixedPhase:       500 * iobehind.Millisecond,
					JitterFraction:   0.08,
				}))
				if err != nil {
					b.Fatal(err)
				}
				d := rep.Distribution()
				b.ReportMetric(d.ExploitTotal(), "exploit-%")
				b.ReportMetric(d.AsyncWriteLost+d.AsyncReadLost, "lost-%")
			}
		})
	}
}

func formatTol(tol float64) string {
	switch tol {
	case 1.0:
		return "tol1.0"
	case 1.1:
		return "tol1.1"
	case 1.5:
		return "tol1.5"
	default:
		return "tol2.0"
	}
}

// BenchmarkAblationHiccupModel toggles the unpaced-I/O hiccup model: with
// it, the unthrottled large-scale WaComM++ run slows down (the paper's
// Fig. 10 speedup); without it, the runs tie — the null hypothesis.
func BenchmarkAblationHiccupModel(b *testing.B) {
	run := func(hiccup bool, strat tmio.StrategyConfig) float64 {
		agent := adio.Config{QueueLatencyPerFlow: 10 * des.Microsecond}
		if hiccup {
			agent.HiccupProb = 6e-4
			agent.HiccupMean = 150 * des.Millisecond
		}
		e := des.NewEngine(2)
		w := mpi.NewWorld(e, mpi.Config{Size: 512})
		fs := pfs.New(e, pfs.LichtenbergConfig())
		sys := mpiio.NewSystem(w, fs, agent)
		tr := tmio.Attach(sys, strat, tmio.Config{DisableOverhead: true})
		if err := w.Run(workloads.WacommMain(sys, workloads.WacommConfig{
			Particles: 500_000, Iterations: 20,
		})); err != nil {
			b.Fatal(err)
		}
		return tr.Report().AppTime.Seconds()
	}
	upOnly := tmio.StrategyConfig{Strategy: tmio.UpOnly, Tol: 1.1}
	for i := 0; i < b.N; i++ {
		withNone := run(true, tmio.StrategyConfig{})
		withUp := run(true, upOnly)
		withoutNone := run(false, tmio.StrategyConfig{})
		withoutUp := run(false, upOnly)
		b.ReportMetric(100*(withNone-withUp)/withNone, "speedup-with-%")
		b.ReportMetric(100*(withoutNone-withoutUp)/withoutNone, "speedup-without-%")
	}
}

// BenchmarkAblationCarryDeficit toggles carrying the Case-B overrun across
// requests: carried deficit lets a recovering file system repay earlier
// stalls, raising effective throughput past the per-request limit.
func BenchmarkAblationCarryDeficit(b *testing.B) {
	run := func(carry bool) float64 {
		e := des.NewEngine(1)
		fs := pfs.New(e, pfs.Config{WriteCapacity: 5e6, ReadCapacity: 5e6})
		a := adio.NewAgent(e, fs, nil, adio.Config{
			SubRequestSize: 5e6, CarryDeficit: carry,
		})
		var total des.Duration
		e.Spawn("app", func(p *des.Proc) {
			a.SetLimit(10e6)
			a.Submit(pfs.Write, 20e6, true).Wait(p) // overruns, banks deficit
			a.SetLimit(2.5e6)
			req := a.Submit(pfs.Write, 10e6, true)
			req.Wait(p)
			total = req.Stats.End.Sub(req.Stats.Start)
			a.Close()
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		return total.Seconds()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "dur-carry-s")
		b.ReportMetric(run(false), "dur-nocarry-s")
	}
}

// BenchmarkAblationScaleSweep measures simulator performance itself:
// virtual-seconds simulated per wall-second across world sizes, the
// scalability claim of the DES substrate.
func BenchmarkAblationScaleSweep(b *testing.B) {
	for _, ranks := range []int{96, 1536, 9216} {
		ranks := ranks
		name := map[int]string{96: "96", 1536: "1536", 9216: "9216"}[ranks]
		b.Run("ranks"+name, func(b *testing.B) {
			var virtual float64
			for i := 0; i < b.N; i++ {
				sim := iobehind.NewSim(iobehind.Options{
					Ranks:  ranks,
					Tracer: iobehind.TracerConfig{DisableOverhead: true},
				})
				rep, err := sim.Run(iobehind.WacommMain(sim.IO, iobehind.WacommConfig{Iterations: 5}))
				if err != nil {
					b.Fatal(err)
				}
				virtual += rep.AppTime.Seconds()
			}
			b.ReportMetric(virtual/float64(b.N), "virtual-s/op")
		})
	}
}

// BenchmarkAblationPerClassLimits compares the paper's single shared limit
// against per-class (read/write) limits on a workload whose read and write
// phases have very different requirements: the shared limit inherits the
// low read-derived value and makes the writes wait.
func BenchmarkAblationPerClassLimits(b *testing.B) {
	run := func(perClass bool) float64 {
		e := des.NewEngine(1)
		w := mpi.NewWorld(e, mpi.Config{Size: 8})
		fs := pfs.New(e, pfs.LichtenbergConfig())
		sys := mpiio.NewSystem(w, fs, adio.Config{})
		tr := tmio.Attach(sys, tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1}, tmio.Config{
			PerClassLimits:  perClass,
			DisableOverhead: true,
		})
		if err := w.Run(workloads.HaccMain(sys, workloads.HaccConfig{
			Loops:            6,
			ParticlesPerRank: 2_000_000,
			FixedPhase:       500 * des.Millisecond,
			VerifyFactor:     0.4, // asymmetric: write window ≪ read window
		})); err != nil {
			b.Fatal(err)
		}
		d := tr.Report().Distribution()
		return d.AsyncWriteLost + d.AsyncReadLost
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "lost-shared-%")
		b.ReportMetric(run(true), "lost-perclass-%")
	}
}

// BenchmarkAblationCollectiveIO compares individual-file-pointer writes
// (the paper's "more challenging" HACC-IO mode) against two-phase
// collective writes under burst-storm conditions: aggregation reduces the
// operation count per storm window by the ranks-per-node factor.
func BenchmarkAblationCollectiveIO(b *testing.B) {
	run := func(collective bool) (visiblePct float64, ops int) {
		e := des.NewEngine(1)
		w := mpi.NewWorld(e, mpi.Config{Size: 64, RanksPerNode: 16})
		fs := pfs.New(e, pfs.LichtenbergConfig())
		sys := mpiio.NewSystem(w, fs, adio.Config{
			SubmitLatencyPerFlow: 2 * des.Millisecond,
		})
		tr := tmio.Attach(sys, tmio.StrategyConfig{}, tmio.Config{DisableOverhead: true})
		if err := w.Run(func(r *mpi.Rank) {
			f := sys.Open(r, "ckpt.dat")
			for j := 0; j < 5; j++ {
				r.Compute(des.Second)
				// Small per-rank pieces: the per-operation storm cost
				// dominates, which is where aggregation pays off.
				if collective {
					f.WriteAtAll(0, 256<<10)
				} else {
					f.WriteAt(0, 256<<10)
				}
			}
			r.Finalize()
		}); err != nil {
			b.Fatal(err)
		}
		rep := tr.Report()
		return rep.Distribution().VisibleIO(), rep.SyncOps
	}
	for i := 0; i < b.N; i++ {
		indVis, _ := run(false)
		colVis, _ := run(true)
		b.ReportMetric(indVis, "visible-individual-%")
		b.ReportMetric(colVis, "visible-collective-%")
	}
}

// BenchmarkAblationUniformLimit compares the paper's per-rank limits to
// the application-level uniform alternative Sec. IV-B sketches, on an
// imbalanced workload (half the ranks write 4× more).
func BenchmarkAblationUniformLimit(b *testing.B) {
	run := func(uniform bool) float64 {
		e := des.NewEngine(1)
		w := mpi.NewWorld(e, mpi.Config{Size: 8})
		fs := pfs.New(e, pfs.LichtenbergConfig())
		sys := mpiio.NewSystem(w, fs, adio.Config{})
		tr := tmio.Attach(sys, tmio.StrategyConfig{Strategy: tmio.Direct, Tol: 1.1}, tmio.Config{
			UniformLimit:    uniform,
			DisableOverhead: true,
		})
		if err := w.Run(func(r *mpi.Rank) {
			f := sys.Open(r, "x")
			bytes := int64(80e6)
			if r.ID()%2 == 1 {
				bytes = 20e6
			}
			var req *mpiio.Request
			for j := 0; j < 6; j++ {
				if req != nil {
					req.Wait()
				}
				req = f.IwriteAt(0, bytes)
				r.Compute(des.Second)
			}
			req.Wait()
			r.Finalize()
		}); err != nil {
			b.Fatal(err)
		}
		d := tr.Report().Distribution()
		return d.AsyncWriteLost + d.AsyncReadLost
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "lost-perrank-%")
		b.ReportMetric(run(true), "lost-uniform-%")
	}
}
