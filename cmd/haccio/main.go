// Command haccio runs the modified HACC-IO benchmark (the paper's Fig. 12
// structure) on the simulated stack and prints the traced report:
//
//	haccio -ranks 96 -loops 10 -strategy direct -tol 1.1
//	haccio -ranks 9216 -strategy none -json report.json
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
	loops := flag.Int("loops", 10, "compute/write/read/verify loops")
	particles := flag.Int64("particles", 5_500_000, "particles per rank (38 bytes each)")
	strategy := flag.String("strategy", "direct", "limiting strategy: none, direct, up-only, adaptive, frequent")
	tol := flag.Float64("tol", 1.1, "strategy tolerance")
	seed := flag.Int64("seed", 1, "simulation seed")
	jsonPath := flag.String("json", "", "write the full report as JSON to this file")
	tracePath := flag.String("chrome", "", "write a Chrome trace (Perfetto-loadable) to this file")
	perRank := flag.Bool("perrank", false, "print the per-rank breakdown")
	flag.Parse()

	strat, err := parseStrategy(*strategy, *tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "haccio:", err)
		os.Exit(2)
	}

	sim := iobehind.NewSim(iobehind.Options{
		Ranks:    *ranks,
		Seed:     *seed,
		Strategy: strat,
	})
	rep, err := sim.Run(iobehind.HaccMain(sim.IO, iobehind.HaccConfig{
		Loops:            *loops,
		ParticlesPerRank: *particles,
	}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "haccio:", err)
		os.Exit(1)
	}
	printReport(rep)
	if *perRank {
		printRanks(sim)
	}
	if *jsonPath != "" {
		writeJSON(rep, *jsonPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "haccio:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := sim.Tracer.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "haccio:", err)
			os.Exit(1)
		}
		fmt.Println("chrome trace written to", *tracePath)
	}
}

// parseStrategy turns a -strategy name and -tol into the facade config;
// "none" is the zero config.
func parseStrategy(name string, tol float64) (iobehind.StrategyConfig, error) {
	s, err := tmio.ParseStrategy(name)
	if err != nil || s == tmio.None {
		return iobehind.StrategyConfig{}, err
	}
	return iobehind.StrategyConfig{Strategy: s, Tol: tol}, nil
}

func printReport(rep *iobehind.Report) {
	d := rep.Distribution()
	t := report.NewTable(fmt.Sprintf("traced run: %d ranks, strategy %s", rep.Ranks, rep.Strategy.Label()),
		"metric", "value")
	t.AddRow("runtime", report.Seconds(rep.Runtime))
	t.AddRow("app time", report.Seconds(rep.AppTime))
	t.AddRow("required bandwidth B", report.Rate(rep.RequiredBandwidth))
	t.AddRow("tracing overhead", report.Pct(rep.OverheadShare()))
	t.AddRow("visible I/O", report.Pct(d.VisibleIO()))
	t.AddRow("hidden I/O (exploit)", report.Pct(d.ExploitTotal()))
	t.AddRow("compute (I/O free)", report.Pct(d.ComputeFree))
	t.AddRow("async ops", fmt.Sprintf("%d", rep.AsyncOps))
	t.AddRow("sync ops", fmt.Sprintf("%d", rep.SyncOps))
	if rep.FirstLimitAt != 0 {
		t.AddRow("limit first applied", fmt.Sprintf("%.2f s", rep.FirstLimitAt.Seconds()))
	}
	fmt.Print(t.Render())
}

func printRanks(sim *iobehind.Sim) {
	t := report.NewTable("per-rank breakdown",
		"rank", "runtime", "phases", "last B", "wait", "async bytes")
	for _, st := range sim.Tracer.RankBreakdown() {
		t.AddRow(
			fmt.Sprintf("%d", st.Rank),
			report.Seconds(st.Runtime),
			fmt.Sprintf("%d", st.Phases),
			report.Rate(st.LastB),
			report.Seconds(st.WaitTime),
			fmt.Sprintf("%d", st.AsyncBytes),
		)
	}
	fmt.Print(t.Render())
}

func writeJSON(rep *iobehind.Report, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "haccio:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "haccio:", err)
		os.Exit(1)
	}
	fmt.Println("report written to", path)
}
