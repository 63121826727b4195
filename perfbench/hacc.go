package main

import (
	"fmt"
	"math"
	"time"

	"iobehind"
	"iobehind/internal/des"
	"iobehind/internal/mpiio"
)

// haccOptions is the hacc-scale simulation: 384 ranks, the direct
// strategy at tol 1.1, and the paper-shape storm agent (the values of
// the experiment suite's calibrated I/O agent).
func haccOptions(seed int64) iobehind.Options {
	return iobehind.Options{
		Ranks: 384,
		Seed:  seed,
		Agent: iobehind.AgentConfig{
			HiccupProb:          6e-4,
			HiccupMean:          150 * iobehind.Millisecond,
			QueueLatencyPerFlow: 10 * iobehind.Microsecond,
		},
		Strategy: iobehind.StrategyConfig{Strategy: iobehind.Direct, Tol: 1.1},
	}
}

var haccConfig = iobehind.HaccConfig{Loops: 10, ParticlesPerRank: 500_000}

// haccDigest identifies one simulation's result; every op of a run must
// produce the same digest.
type haccDigest struct {
	requiredBW uint64 // bits of Report.RequiredBandwidth
	phases     int
	events     int64
}

// haccCounts are the deterministic per-layer counts of one traced op.
type haccCounts struct {
	des                 des.Stats
	asyncOps, syncOps   int
	segments            int
	slept, queued       des.Duration
	phases, seriesPoint int
}

// ioCounter counts MPI-IO calls; it sits before the tracer in an
// mpiio.Tee and charges no simulated time.
type ioCounter struct {
	async, sync int
	reqs        []*mpiio.Request
}

func (c *ioCounter) AsyncSubmitted(_ *iobehind.Rank, req *mpiio.Request) {
	c.async++
	c.reqs = append(c.reqs, req)
}
func (c *ioCounter) WaitBegin(*iobehind.Rank, *mpiio.Request)                       {}
func (c *ioCounter) WaitEnd(*iobehind.Rank, *mpiio.Request)                         {}
func (c *ioCounter) SyncBegin(*iobehind.Rank, mpiio.Op)                             { c.sync++ }
func (c *ioCounter) SyncEnd(*iobehind.Rank, mpiio.Op, iobehind.Time, iobehind.Time) {}

// haccOp runs one simulation: stack build, World.Run, Tracer.Report and
// the three Eq. 3 series. It returns the digest, the post-run analysis
// time (report plus series) and, with a recorder, the layer counts.
func haccOp(opts iobehind.Options, rec *recorder, op int) (haccDigest, time.Duration, haccCounts, error) {
	root := rec.begin("hacc.op", -1, op)
	defer rec.end(root)
	id := rec.begin("stack.build", root, op)
	sim := iobehind.NewSim(opts)
	var ctr *ioCounter
	if rec != nil {
		ctr = &ioCounter{}
		sim.IO.SetInterceptor(mpiio.Tee(ctr, sim.IO.Interceptor()))
	}
	rec.end(id)

	id = rec.begin("sim.run", root, op)
	err := sim.World.Run(iobehind.HaccMain(sim.IO, haccConfig))
	rec.end(id)
	if err != nil {
		return haccDigest{}, 0, haccCounts{}, err
	}

	t0 := time.Now()
	id = rec.begin("tmio.report", root, op)
	rep := sim.Tracer.Report()
	rec.end(id)
	id = rec.begin("region.sweep", root, op)
	b, t, bl := rep.BSeries(), rep.TSeries(), rep.BLSeries()
	rec.end(id)
	analysis := time.Since(t0)

	st := sim.Engine.Stats()
	dg := haccDigest{requiredBW: math.Float64bits(rep.RequiredBandwidth), phases: len(rep.BPhases), events: st.EventsRun}
	var c haccCounts
	if ctr != nil {
		c = haccCounts{des: st, asyncOps: ctr.async, syncOps: ctr.sync, phases: len(rep.BPhases),
			seriesPoint: len(b.Points) + len(t.Points) + len(bl.Points)}
		for _, q := range ctr.reqs {
			s := q.Stats()
			c.segments += len(s.Segments)
			c.slept += s.SleptFor
			c.queued += s.Queued
		}
	}
	return dg, analysis, c, nil
}

// runHacc measures hacc-scale. Set-up builds the facade stack and runs
// one warm-up simulation; each op is one full simulation.
func runHacc(cfg config) (*outcome, error) {
	o := &outcome{workUnit: "rank-phases"}
	opts := haccOptions(cfg.seed)
	var ref haccDigest
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		d, _, _, err := haccOp(opts, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("warm-up simulation: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		if i > 0 && d != ref {
			o.problem("warm-up simulations differ: %+v vs %+v", d, ref)
		}
		ref = d
	}
	o.notes = append(o.notes, fmt.Sprintf("hacc-scale: 384 ranks, %d des events, %d rank-phases, required bandwidth %.6g B/s",
		ref.events, ref.phases, math.Float64frombits(ref.requiredBW)))

	var counts []haccCounts
	err := measure(cfg.window, minOps, func(i int) error {
		rec := cfg.tracer(i)
		traced := rec != nil
		t0 := time.Now()
		d, analysis, c, err := haccOp(opts, rec, i)
		el := time.Since(t0)
		o.attempted++
		if err != nil || d != ref {
			o.failed++
			o.problem("op %d: digest %+v (want %+v), err %v", i, d, ref, err)
		}
		if traced {
			o.traced = append(o.traced, el)
			counts = append(counts, c)
			if c != counts[0] {
				o.problem("op %d: layer counts %+v differ from the first traced op's %+v", i, c, counts[0])
			}
			return nil
		}
		o.ops = append(o.ops, el)
		o.queries = append(o.queries, analysis)
		if err == nil && d == ref {
			o.work += float64(d.phases)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		haccLayers(o, cfg.rec, counts[0])
	}
	return o, nil
}

// haccLayers derives the facade, des, mpiio/adio, tmio and region
// metrics from the traced ops.
func haccLayers(o *outcome, rec *recorder, c haccCounts) {
	o.layer("stack.build_ms", rec.medianMs("stack.build"), "ms")
	o.layer("sim.run_ms", rec.medianMs("sim.run"), "ms")
	var rates []float64
	for _, d := range rec.perOp("sim.run") {
		rates = append(rates, float64(c.des.EventsRun)/d.Seconds())
	}
	o.layer("des.events_per_s", medianOf(rates), "1/s")
	o.layer("des.events", float64(c.des.EventsRun), "count")
	o.layer("des.events_pooled", float64(c.des.EventsPooled), "count")
	o.layer("des.max_heap", float64(c.des.MaxHeap), "count")
	o.layer("des.procs", float64(c.des.Procs), "count")
	o.layer("mpiio.async_ops", float64(c.asyncOps), "count")
	o.layer("mpiio.sync_ops", float64(c.syncOps), "count")
	o.layer("adio.segments", float64(c.segments), "count")
	o.layer("adio.sleep_s", c.slept.Seconds(), "sim_s")
	o.layer("adio.queued_s", c.queued.Seconds(), "sim_s")
	o.layer("tmio.report_ms", rec.medianMs("tmio.report"), "ms")
	o.layer("tmio.phases", float64(c.phases), "count")
	o.layer("region.sweep_ms", rec.medianMs("region.sweep"), "ms")
	o.layer("region.points", float64(c.seriesPoint), "count")
	o.layer("trace.hacc_overhead_ms", medianOf(millis(o.traced))-medianOf(millis(o.ops)), "ms")
}
