// Command iorun runs one workload on the simulated stack under the TMIO
// tracer and prints its report, the same text ioreport prints from the
// saved file:
//
//	iorun -workload hacc -ranks 96 -loops 10 -strategy direct -tol 1.1
//	iorun -workload hacc -ranks 9216 -strategy none -json report.json
//	iorun -workload wacomm -ranks 96 -iterations 50 -chrome trace.json
//
// hacc is the modified HACC-IO benchmark (the paper's Fig. 12 structure),
// wacomm the WaComM++ model. Status lines go to stderr, so stdout holds
// only the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iobehind"
	"iobehind/internal/report"
	"iobehind/internal/tmio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iorun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "hacc", "workload: hacc or wacomm")
	ranks := fs.Int("ranks", 96, "MPI ranks")
	loops := fs.Int("loops", 0, "hacc: compute/write/read/verify loops (0 = 10)")
	iterations := fs.Int("iterations", 0, "wacomm: simulated hours (0 = 50)")
	particles := fs.Int64("particles", 0,
		"hacc: particles per rank, 38 bytes each (0 = 5,500,000); wacomm: total particles (0 = 2,000,000)")
	strategy := fs.String("strategy", "",
		"limiting strategy: none, direct, up-only, adaptive, frequent (default direct for hacc, up-only for wacomm)")
	tol := fs.Float64("tol", 1.1, "strategy tolerance")
	seed := fs.Int64("seed", 1, "simulation seed")
	jsonPath := fs.String("json", "", "write the report file (ioreport reads it) to this path")
	chromePath := fs.String("chrome", "", "write a Chrome trace (Perfetto-loadable) to this path")
	perRank := fs.Bool("perrank", false, "print the per-rank breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "iorun:", err)
		return code
	}

	var mainOf func(*iobehind.Sim) func(*iobehind.Rank)
	switch *workload {
	case "hacc":
		cfg := iobehind.HaccConfig{Loops: *loops, ParticlesPerRank: *particles}
		mainOf = func(s *iobehind.Sim) func(*iobehind.Rank) { return iobehind.HaccMain(s.IO, cfg) }
		if *strategy == "" {
			*strategy = "direct"
		}
	case "wacomm":
		cfg := iobehind.WacommConfig{Particles: *particles, Iterations: *iterations}
		mainOf = func(s *iobehind.Sim) func(*iobehind.Rank) { return iobehind.WacommMain(s.IO, cfg) }
		if *strategy == "" {
			*strategy = "up-only"
		}
	default:
		return fail(2, fmt.Errorf("unknown workload %q (want hacc or wacomm)", *workload))
	}
	s, err := tmio.ParseStrategy(*strategy)
	if err != nil {
		return fail(2, err)
	}
	var strat iobehind.StrategyConfig // "none" is the zero config
	if s != tmio.None {
		strat = iobehind.StrategyConfig{Strategy: s, Tol: *tol}
	}

	sim := iobehind.NewSim(iobehind.Options{Ranks: *ranks, Seed: *seed, Strategy: strat})
	rep, err := sim.Run(mainOf(sim))
	if err != nil {
		return fail(1, err)
	}
	if err := rep.File().WriteText(stdout); err != nil {
		return fail(1, err)
	}
	if *perRank {
		printRanks(stdout, sim.Tracer)
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, rep.WriteJSON); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stderr, "report written to", *jsonPath)
	}
	if *chromePath != "" {
		if err := writeFile(*chromePath, sim.Tracer.WriteChromeTrace); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stderr, "chrome trace written to", *chromePath)
	}
	return 0
}

func printRanks(w io.Writer, tr *iobehind.Tracer) {
	t := report.NewTable("per-rank breakdown",
		"rank", "runtime", "phases", "last B", "wait", "async bytes")
	for _, st := range tr.RankBreakdown() {
		t.AddRow(
			fmt.Sprintf("%d", st.Rank),
			report.Seconds(st.Runtime),
			fmt.Sprintf("%d", st.Phases),
			report.Rate(st.LastB),
			report.Seconds(st.WaitTime),
			fmt.Sprintf("%d", st.AsyncBytes),
		)
	}
	fmt.Fprint(w, t.Render())
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
