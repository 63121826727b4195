// Command iosweep regenerates the paper's figures as one parallel sweep:
// every requested figure decomposes into independent (strategy × rank
// count) simulation points, iosweep fans all of them across a worker
// pool, and the figures assemble and print in request order — byte-
// identical to the serial path (-j 1), only faster.
//
//	iosweep                                      # all figures, quick scale
//	iosweep -figs all -j 1                       # the serial reference path
//	iosweep -figs 1,5,8 -scale quick -j 8        # selected figures, 8 workers
//	iosweep -figs all -scale paper -cache .iosweep-cache
//	iosweep -figs 5 -cpuprofile cpu.out -memprofile mem.out
//	iosweep -emit-trace hacc.trace -workload hacc # record a workload's I/O trace
//	iosweep -trace hacc.trace                     # replay a trace file
//	iosweep -fabric 127.0.0.1:7777               # submit the sweep to a fabric coordinator
//	iosweep -cache-server http://127.0.0.1:7778 -cache .iosweep-cache  # shared cache tier
//
// With -cache, completed points are memoized on disk keyed by a hash of
// their full configuration (strategy, tolerances, rank count, file-system
// config, workload parameters): a re-run recomputes only points whose
// configuration changed and serves the rest from the cache. The final
// summary line reports how many points ran and how many were cached.
//
// -emit-trace records the per-rank MPI-IO operation stream of a built-in
// workload in the versioned JSON-lines format of docs/TRACE_FORMAT.md.
// -trace replays such a file (from this tool or converted from a real
// application trace) as a scenario against the simulated cluster; the
// replay point's cache key includes the SHA-256 of the trace content, so
// editing the file invalidates exactly that point.
//
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// whole sweep; inspect them with `go tool pprof`.
//
// -fabric submits the sweep to an iofabric coordinator instead of running
// it locally: points execute on whatever ioworker processes are attached,
// results stream back, and the figures assemble locally — byte-identical
// to the local run. -cache-server layers a shared HTTP cache (iofabric's
// /cache endpoint) over the local -cache directory, so points computed
// anywhere in the fabric are hits here too.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/fabric"
	"iobehind/internal/profiling"
	"iobehind/internal/runner"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code instead of os.Exit calls, so deferred
// cleanup — in particular flushing pprof profiles — runs on every path.
func run() int {
	figs := flag.String("figs", "all", "figures to reproduce: comma list of 1,2,3,4,5,6,7,8,9,10,11,13,14,faults,trace or 'all'")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	workers := flag.Int("j", 0, "worker pool size (default GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "cache directory for completed points (empty disables caching)")
	outDir := flag.String("out", "", "also write each figure's output to <out>/fig<N>.txt")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault scenario's random window batch (figure 'faults')")
	checkFaults := flag.Bool("check-faults", false, "fail unless the fault scenario's invariants hold (nonzero retries, recovered limit)")
	traceFile := flag.String("trace", "", "replay this I/O trace file (docs/TRACE_FORMAT.md) instead of sweeping figures")
	emitTrace := flag.String("emit-trace", "", "emit a trace of -workload to this file and exit")
	workload := flag.String("workload", "phased", "built-in workload for -emit-trace: phased, hacc, wacomm, or ior")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the sweep to this file")
	fabricAddr := flag.String("fabric", "", "submit the sweep to the fabric coordinator at this TCP address instead of running locally")
	cacheServer := flag.String("cache-server", "", "shared cache server URL (iofabric's HTTP endpoint), layered over -cache")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosweep:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
		}
	}()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosweep:", err)
		return 2
	}

	// -emit-trace short-circuits the sweep: record the chosen built-in
	// workload's I/O as a trace file and exit.
	if *emitTrace != "" {
		raw, err := experiments.EmitBuiltinTrace(*workload, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 2
		}
		if err := os.WriteFile(*emitTrace, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "iosweep: wrote %d-byte %s trace (%s scale) to %s\n",
			len(raw), *workload, scale, *emitTrace)
		return 0
	}

	var plan *experiments.Plan
	if *traceFile != "" {
		// A trace replay replaces the figure sweep: the trace file is the
		// experiment, and its content hash keys the runner cache, so
		// re-running the same file hits and any edit misses.
		raw, err := os.ReadFile(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
		name := strings.TrimSuffix(filepath.Base(*traceFile), filepath.Ext(*traceFile))
		exp, err := experiments.TraceReplayExperiment(name, raw, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iosweep: %s: %v\n", *traceFile, err)
			return 2
		}
		// A one-entry plan without refs: the fabric cannot resolve it.
		plan = &experiments.Plan{
			Entries: []experiments.PlanEntry{{ID: exp.Fig, Exp: exp}},
			Points:  exp.Points,
		}
	} else {
		// Resolve the figure list to distinct experiments, keeping
		// request order; figures sharing an experiment (1+2, 5+6) are
		// swept once. The plan is the same enumeration iofabric's
		// self-run and any attached worker reproduce, so refs resolve
		// identically there. The fault-scenario seed lands in the point
		// configs (and refs), so each seed caches separately.
		var ids []string
		for _, id := range strings.Split(*figs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		plan, err = experiments.BuildPlan(ids, scale, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 2
		}
	}
	points := plan.Points

	opts := runner.Options{Workers: *workers}
	var cacheLabel string
	var pointCache runner.PointCache
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
		pointCache = cache
		cacheLabel = *cacheDir
	}
	if *cacheServer != "" {
		remote := fabric.NewRemoteCache(*cacheServer)
		if pointCache != nil {
			pointCache = fabric.NewTieredCache(pointCache, remote)
			cacheLabel = *cacheDir + "+" + remote.URL()
		} else {
			pointCache = remote
			cacheLabel = remote.URL()
		}
	}
	if pointCache != nil {
		opts.Cache = pointCache
	}
	r := runner.New(opts)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var results []runner.Result
	var runErr error
	var fabricStats *fabric.SweepStats
	if *fabricAddr != "" {
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "iosweep: -trace cannot run on the fabric (trace points resolve from file content, not a figure id)")
			return 2
		}
		manifest, err := fabric.ManifestFor(points, plan.Refs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "iosweep: "+format+"\n", args...)
		}
		sub, err := fabric.Submit(ctx, *fabricAddr, "iosweep", manifest, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
		fabricStats = &sub.Stats
		results, err = fabric.DecodeResults(points, sub)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosweep:", err)
			return 1
		}
	} else {
		results, runErr = r.Run(ctx, points)
	}
	wall := time.Since(start).Round(time.Millisecond)

	failed := 0
	for _, fe := range plan.Entries {
		res, err := fe.Exp.Assemble(results[fe.Offset : fe.Offset+len(fe.Exp.Points)])
		if err != nil {
			fmt.Fprintf(os.Stderr, "iosweep: figure %s: %v\n", fe.ID, err)
			failed++
			continue
		}
		if *checkFaults {
			if c, ok := res.(interface{ Check() error }); ok {
				if err := c.Check(); err != nil {
					fmt.Fprintf(os.Stderr, "iosweep: figure %s: %v\n", fe.ID, err)
					failed++
					continue
				}
				fmt.Fprintf(os.Stderr, "iosweep: figure %s: fault invariants hold\n", fe.ID)
			}
		}
		header := fmt.Sprintf("### Figure %s (%s scale, %d points)\n\n",
			fe.ID, scale, len(fe.Exp.Points))
		body := res.Render()
		fmt.Print(header)
		fmt.Println(body)
		if *outDir != "" {
			path := filepath.Join(*outDir, "fig"+fe.ID+".txt")
			if err := os.WriteFile(path, []byte(header+body+"\n"), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "iosweep:", err)
				return 1
			}
		}
	}

	cached := runner.CachedCount(results)
	if fabricStats != nil {
		fmt.Fprintf(os.Stderr, "iosweep: fabric sweep of %d points (%d computed, %d journal, %d cache, %d redispatched) across %d figures in %v via %s\n",
			fabricStats.Points, fabricStats.Computed, fabricStats.JournalHits, fabricStats.CacheHits,
			fabricStats.Redispatches, len(plan.Entries), wall, *fabricAddr)
	} else {
		fmt.Fprintf(os.Stderr, "iosweep: %d points (%d computed, %d cached) across %d figures in %v with %d workers\n",
			len(points), len(points)-cached, cached, len(plan.Entries), wall, r.Workers())
	}
	if c := r.Cache(); c != nil && fabricStats == nil {
		fmt.Fprintln(os.Stderr, cacheStatsLine(cacheLabel, c.Stats()))
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "iosweep:", runErr)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}
