// Command ioreport renders a TMIO report file (written by Report.WriteJSON
// or `iorun -json`) as the same tables and series iorun printed for the
// live run — the offline analysis path, like the paper's plotting scripts
// consuming TMIO's result files.
//
//	iorun -workload hacc -ranks 96 -json run.json
//	ioreport run.json
//	ioreport -replay run.json   # what-if replay of every strategy
//
// With -trace, the argument is instead an I/O trace file in the format of
// docs/TRACE_FORMAT.md (written by `iosweep -emit-trace` or converted from
// a real application trace); ioreport prints its per-rank and per-op
// summary. Replay such a file with `iosweep -trace`.
//
//	iosweep -emit-trace hacc.trace -workload hacc
//	ioreport -trace hacc.trace
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"iobehind/internal/des"
	"iobehind/internal/region"
	"iobehind/internal/report"
	"iobehind/internal/tmio"
	"iobehind/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ioreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	replay := fs.Bool("replay", false,
		"replay all limiting strategies over the recorded phases (what-if analysis)")
	traceFile := fs.Bool("trace", false,
		"the argument is an I/O trace file (docs/TRACE_FORMAT.md); print its summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ioreport [-replay] <report.json>\n       ioreport -trace <file.trace>")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ioreport:", err)
		return 1
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	if *traceFile {
		if err := summarizeTrace(stdout, data); err != nil {
			return fail(err)
		}
		return 0
	}
	f, err := tmio.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return fail(err)
	}
	if err := f.WriteText(stdout); err != nil {
		return fail(err)
	}
	if *replay {
		replayStrategies(stdout, f.BPhases)
	}
	return 0
}

// summarizeTrace parses raw as a JSON-lines I/O trace and prints its
// per-rank and per-op summary — the "inspect" step between emitting a
// trace and replaying it.
func summarizeTrace(w io.Writer, raw []byte) error {
	tr, err := trace.Parse(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	head := report.NewTable(fmt.Sprintf("I/O trace — app %q (format v%d)", tr.App, tr.Version),
		"metric", "value")
	head.AddRow("ranks", fmt.Sprintf("%d (%d per node)", tr.Ranks, tr.RanksPerNode))
	head.AddRow("operations", fmt.Sprintf("%d", tr.Ops()))
	head.AddRow("clock", tr.Clock)
	if tr.Skipped > 0 {
		head.AddRow("skipped unknown ops", fmt.Sprintf("%d", tr.Skipped))
	}
	fmt.Fprint(w, head.Render())

	perRank := report.NewTable("per rank", "rank", "ops", "files", "written", "read", "async", "span")
	opCounts := map[string]int{}
	for rank, recs := range tr.PerRank {
		var written, read int64
		var async, files int
		var first, last int64
		for i, rec := range recs {
			if i == 0 {
				first = rec.T
			}
			if rec.T > last {
				last = rec.T
			}
			opCounts[rec.Op]++
			switch rec.Op {
			case trace.OpOpen:
				files++
			case trace.OpWriteAt, trace.OpWriteAtAll:
				written += rec.N
			case trace.OpReadAt, trace.OpReadAtAll:
				read += rec.N
			case trace.OpIwriteAt:
				written += rec.N
				async++
			case trace.OpIreadAt:
				read += rec.N
				async++
			}
		}
		perRank.AddRow(fmt.Sprintf("%d", rank), fmt.Sprintf("%d", len(recs)),
			fmt.Sprintf("%d", files), report.Bytes(written), report.Bytes(read),
			fmt.Sprintf("%d", async), report.Seconds(des.Duration(last-first)))
	}
	fmt.Fprint(w, perRank.Render())

	kinds := make([]string, 0, len(opCounts))
	for op := range opCounts {
		kinds = append(kinds, op)
	}
	sort.Strings(kinds)
	ops := report.NewTable("operations by kind", "op", "count")
	for _, op := range kinds {
		ops.AddRow(op, fmt.Sprintf("%d", opCounts[op]))
	}
	fmt.Fprint(w, ops.Render())
	return nil
}

// replayStrategies runs the what-if analysis: what would each strategy
// have done on the recorded required bandwidths?
func replayStrategies(w io.Writer, phases []region.Phase) {
	if len(phases) == 0 {
		fmt.Fprintln(w, "\nno recorded phases: cannot replay (report was written by an older version?)")
		return
	}
	t := report.NewTable("strategy replay over the recorded phases (projected)",
		"strategy", "wait share", "exploit share")
	for _, s := range []tmio.StrategyConfig{
		{Strategy: tmio.Direct, Tol: 1.1},
		{Strategy: tmio.Direct, Tol: 2},
		{Strategy: tmio.UpOnly, Tol: 1.1},
		{Strategy: tmio.Adaptive, Tol: 1.1},
		{Strategy: tmio.Frequent, Tol: 1.1},
	} {
		res := tmio.Replay(phases, s)
		t.AddRow(res.Strategy.Label(),
			report.Pct(100*res.WaitShare()),
			report.Pct(100*res.ExploitShare()))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, t.Render())
}
