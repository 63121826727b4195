// Command wacomm runs the WaComM++ model on the simulated stack and
// prints the traced report with the application-level series:
//
//	wacomm -ranks 96 -iterations 50 -strategy up-only
//	wacomm -ranks 9216 -strategy none
package main

import (
	"flag"
	"fmt"
	"os"

	"iobehind"
	"iobehind/internal/report"
	"iobehind/internal/tmio"
)

func main() {
	ranks := flag.Int("ranks", 96, "MPI ranks")
	iterations := flag.Int("iterations", 50, "simulated hours")
	particles := flag.Int64("particles", 2_000_000, "total particles")
	strategy := flag.String("strategy", "up-only", "limiting strategy: none, direct, up-only, adaptive, frequent")
	tol := flag.Float64("tol", 1.1, "strategy tolerance")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	s, err := tmio.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wacomm:", err)
		os.Exit(2)
	}
	var strat iobehind.StrategyConfig // "none" is the zero config
	if s != tmio.None {
		strat = iobehind.StrategyConfig{Strategy: s, Tol: *tol}
	}

	rep, err := iobehind.RunWacomm(iobehind.Options{
		Ranks:    *ranks,
		Seed:     *seed,
		Strategy: strat,
	}, iobehind.WacommConfig{
		Particles:  *particles,
		Iterations: *iterations,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wacomm:", err)
		os.Exit(1)
	}

	d := rep.Distribution()
	fmt.Printf("WaComM++ %d ranks, %d iterations, strategy %s\n",
		rep.Ranks, *iterations, rep.Strategy.Label())
	fmt.Printf("  app time            %s\n", report.Seconds(rep.AppTime))
	fmt.Printf("  required bandwidth  %s\n", report.Rate(rep.RequiredBandwidth))
	fmt.Printf("  exploit / lost      %s / %s\n",
		report.Pct(d.ExploitTotal()), report.Pct(d.AsyncWriteLost+d.AsyncReadLost))
	end := iobehind.Time(rep.Runtime)
	tSeries, bSeries, blSeries := rep.TSeries(), rep.BSeries(), rep.BLSeries()
	fmt.Printf("  T  peak %-12s |%s|\n", report.Rate(tSeries.Max()), report.Sparkline(tSeries, 0, end, 60))
	fmt.Printf("  B  peak %-12s |%s|\n", report.Rate(bSeries.Max()), report.Sparkline(bSeries, 0, end, 60))
	if len(blSeries.Points) > 0 {
		fmt.Printf("  BL peak %-12s |%s|\n", report.Rate(blSeries.Max()), report.Sparkline(blSeries, 0, end, 60))
	}
}
