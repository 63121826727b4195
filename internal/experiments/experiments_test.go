package experiments

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iobehind/internal/runner"
	"iobehind/internal/tmio"
)

// runFig executes exp through r and returns the assembled figure as T.
func runFig[T Renderer](tb testing.TB, r *runner.Runner, exp *Experiment) T {
	tb.Helper()
	res, err := RunExperiment(context.Background(), r, exp)
	if err != nil {
		tb.Fatal(err)
	}
	v, ok := res.(T)
	if !ok {
		tb.Fatalf("figure %s assembled a %T", exp.Fig, res)
	}
	return v
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Paper.String() != "paper" {
		t.Fatal("scale names")
	}
}

func TestByFigRegistry(t *testing.T) {
	// Every advertised figure id resolves, shared figures resolve to the
	// same canonical experiment, and point keys are unique across the
	// whole suite (the cache relies on that).
	seen := map[string]string{}
	for _, id := range append(append([]string{}, FigOrder...), "2", "6") {
		exp, ok := ByFig(id, Quick)
		if !ok {
			t.Fatalf("figure %s missing", id)
		}
		if len(exp.Points) == 0 || exp.Assemble == nil {
			t.Fatalf("figure %s: empty experiment", id)
		}
		for _, p := range exp.Points {
			if p.Key == "" || p.Run == nil {
				t.Fatalf("figure %s: malformed point %+v", id, p.Key)
			}
			// Aliased ids ("2"→"1", "6"→"5") legitimately re-enumerate the
			// same keys; distinct experiments must not collide.
			if prev, dup := seen[p.Key]; dup && prev != exp.Fig {
				t.Fatalf("point key %q shared by experiments %s and %s", p.Key, prev, exp.Fig)
			}
			seen[p.Key] = exp.Fig
		}
	}
	if _, ok := ByFig("12", Quick); ok {
		t.Fatal("figure 12 does not exist in the paper's evaluation")
	}
	shared, _ := ByFig("2", Quick)
	canon, _ := ByFig("1", Quick)
	if shared.Fig != canon.Fig {
		t.Fatalf("fig 2 canonical id = %s", shared.Fig)
	}
}

// TestExperimentsDocumented keeps EXPERIMENTS.md honest: every
// constructor behind a figure id must be named in its figure↔code
// table as experiments.<Constructor>, the form the code column uses. A
// bare experiments.Fig01 does not count, so a stale mention of a deleted
// function cannot pass for a row.
func TestExperimentsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for fig, ctor := range experimentsByFig {
		full := runtime.FuncForPC(reflect.ValueOf(ctor).Pointer()).Name()
		name := full[strings.LastIndex(full, "/")+1:] // experiments.FigNNExperiment
		if !strings.Contains(string(doc), name) {
			t.Errorf("EXPERIMENTS.md: no entry for %s (figure %s)", name, fig)
		}
	}
}

func TestFig04ParallelMatchesSerial(t *testing.T) {
	serial := runFig[*Fig04Result](t, runner.Serial(), Fig04Experiment(Quick))
	parallel := runFig[*Fig04Result](t, runner.New(runner.Options{Workers: 4}), Fig04Experiment(Quick))
	if serial.Render() != parallel.Render() {
		t.Fatal("fig04 parallel render differs from serial")
	}
}

func TestFig01QuickShape(t *testing.T) {
	res := runFig[*ClusterResult](t, runner.Serial(), Fig01Experiment(Quick))
	if len(res.Base.Jobs) != 8 || len(res.Limited.Jobs) != 8 {
		t.Fatalf("jobs: %d/%d", len(res.Base.Jobs), len(res.Limited.Jobs))
	}
	if res.Limited.LimitToggles == 0 {
		t.Fatal("limiting never engaged")
	}
	// At least half of the sync jobs profit from the spared bandwidth.
	improved := 0
	for i, j := range res.Limited.Jobs {
		if !j.Async && j.Runtime() < res.Base.Jobs[i].Runtime() {
			improved++
		}
	}
	if improved < 4 {
		t.Fatalf("only %d sync jobs improved", improved)
	}
	out := res.Render()
	for _, want := range []string{"Fig. 1", "Fig. 2", "makespan", "job 4 (async)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig05QuickShape(t *testing.T) {
	res := runFig[*HaccRuntimeResult](t, runner.Serial(), Fig05Experiment(Quick))
	if len(res.Rows) != 8 { // 4 rank counts × 2 runs
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's bound: tracing overhead below 9% of the runtime.
	if s := res.MaxOverheadShare(); s > 9 {
		t.Fatalf("overhead share %v%% exceeds 9%%", s)
	}
	// Required bandwidth grows with rank count.
	small, large := res.RequiredBandwidthGrowth()
	if large <= small {
		t.Fatalf("required bandwidth did not grow: %v -> %v", small, large)
	}
	// Runtime grows with rank count (the Fig. 5 curve shape).
	first, last := res.Rows[0].Report, res.Rows[len(res.Rows)-1].Report
	if last.Runtime <= first.Runtime {
		t.Fatalf("runtime did not grow: %v -> %v", first.Runtime, last.Runtime)
	}
	out := res.Render()
	if !strings.Contains(out, "Fig. 5") || !strings.Contains(out, "Fig. 6") {
		t.Fatalf("render:\n%s", out)
	}
	// Fig. 6 property: peri overhead stays below 0.1%.
	for _, row := range res.Rows {
		if d := row.Report.Distribution(); d.OverheadPeri > 0.1 {
			t.Fatalf("peri overhead %v%% at ranks=%d", d.OverheadPeri, row.Ranks)
		}
	}
}

func TestFig07QuickShape(t *testing.T) {
	res := runFig[*WacommDistResult](t, runner.Serial(), Fig07Experiment(Quick))
	if len(res.Rows) != 12 { // 2 rank counts × 6 runs
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Limited runs exploit the compute phases more than unlimited ones.
	direct := res.MeanExploit(tmio.Direct)
	upOnly := res.MeanExploit(tmio.UpOnly)
	none := res.MeanExploit(tmio.None)
	if direct <= none || upOnly <= none {
		t.Fatalf("exploit: direct=%v upOnly=%v none=%v", direct, upOnly, none)
	}
	if !strings.Contains(res.Render(), "Fig. 7") {
		t.Fatal("render title")
	}
}

func TestFig08And09QuickShape(t *testing.T) {
	burst := runFig[*SeriesResult](t, runner.Serial(), Fig08Experiment(Quick))
	limited := runFig[*SeriesResult](t, runner.Serial(), Fig09Experiment(Quick))
	// Fig. 8: unthrottled bursts reach far above the requirement.
	if burst.T.Max() < 5*burst.Report.RequiredBandwidth {
		t.Fatalf("burst T peak %v vs required %v", burst.T.Max(), burst.Report.RequiredBandwidth)
	}
	// Fig. 9: once the limiter is active, per-rank throughput collapses
	// toward B_L instead of bursting at file-system speed.
	if limited.ThrottledPeak() >= burst.BurstPeak()/10 {
		t.Fatalf("limited throttled peak %v not far below burst peak %v",
			limited.ThrottledPeak(), burst.BurstPeak())
	}
	if len(limited.BL.Points) == 0 || limited.Report.FirstLimitAt == 0 {
		t.Fatal("no limit evidence in Fig. 9 run")
	}
	if burst.Report.FirstLimitAt != 0 {
		t.Fatal("Fig. 8 run should never limit")
	}
	out := limited.Render()
	for _, want := range []string{"BL peak", "limit first applied", "exploit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig10QuickShape(t *testing.T) {
	res := runFig[*Fig10Result](t, runner.Serial(), Fig10Experiment(Quick))
	up := res.UpOnly.Report.Distribution().ExploitTotal()
	none := res.None.Report.Distribution().ExploitTotal()
	if up <= 2*none {
		t.Fatalf("exploit: up-only %v should far exceed none %v", up, none)
	}
	if !strings.Contains(res.Render(), "speedup") {
		t.Fatal("render")
	}
}

func TestFig11QuickShape(t *testing.T) {
	res := runFig[*HaccDistResult](t, runner.Serial(), Fig11Experiment(Quick))
	if len(res.Rows) != 16 { // 2 rank counts × 8 runs
		t.Fatalf("rows = %d", len(res.Rows))
	}
	exploit := res.ExploitByStrategy()
	for _, strat := range []tmio.Strategy{tmio.Direct, tmio.UpOnly, tmio.Adaptive} {
		if exploit[strat] <= exploit[tmio.None] {
			t.Fatalf("%v exploit %v not above none %v", strat, exploit[strat], exploit[tmio.None])
		}
	}
	if !strings.Contains(res.Render(), "Fig. 11") {
		t.Fatal("render")
	}
}

func TestFig13QuickShape(t *testing.T) {
	res := runFig[*Fig13Result](t, runner.Serial(), Fig13Experiment(Quick))
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	// The unlimited run bursts; the limited ones are flattened once their
	// limiters engage.
	unlimited := res.Runs[3]
	for _, run := range res.Runs[:3] {
		if run.ThrottledPeak() >= unlimited.BurstPeak()/5 {
			t.Fatalf("%s throttled peak %v not below unlimited burst %v",
				run.Name, run.ThrottledPeak(), unlimited.BurstPeak())
		}
	}
	if !strings.Contains(res.Render(), "no limit") {
		t.Fatal("render")
	}
}

func TestFig14QuickShape(t *testing.T) {
	res := runFig[*SeriesResult](t, runner.Serial(), Fig14Experiment(Quick))
	// The noisy file system causes visible waiting: the paper's point is
	// that the limit is not reached due to I/O variation.
	d := res.Report.Distribution()
	if d.AsyncWriteLost+d.AsyncReadLost <= 0 {
		t.Fatal("no waiting despite file-system noise")
	}
	if res.Report.FirstLimitAt == 0 {
		t.Fatal("limit never applied")
	}
}

func TestFig04WorkedExample(t *testing.T) {
	res := runFig[*Fig04Result](t, runner.Serial(), Fig04Experiment(Quick))
	out := res.Render()
	// The peak region sums all three ranks: 30+20+50 = 100 MB/s.
	if !strings.Contains(out, "B = max B_r = 100.00 MB/s") {
		t.Fatalf("render:\n%s", out)
	}
	// Five regions rendered.
	if !strings.Contains(out, "region") || !strings.Contains(out, "5") {
		t.Fatalf("regions missing:\n%s", out)
	}
}

func TestFig03WindowsTable(t *testing.T) {
	res := runFig[*Fig03Result](t, runner.Serial(), Fig03Experiment(Quick))
	out := res.Render()
	if !strings.Contains(out, "Δt (required)") || !strings.Contains(out, "Δt° (actual)") {
		t.Fatalf("render:\n%s", out)
	}
	// Eight phases tabulated for rank 0.
	var rank0 int
	for _, ph := range res.Report.BPhases {
		if ph.Rank == 0 {
			rank0++
		}
	}
	if rank0 != 8 {
		t.Fatalf("rank-0 phases = %d", rank0)
	}
	// The actual I/O times vary (noise) while the required windows stay
	// near the 1 s compute phase.
	var minA, maxA float64
	first := true
	for _, ph := range res.Report.TPhases {
		if ph.Rank != 0 {
			continue
		}
		d := ph.End.Sub(ph.Start).Seconds()
		if first || d < minA {
			minA = d
		}
		if first || d > maxA {
			maxA = d
		}
		first = false
	}
	if maxA < 1.2*minA {
		t.Fatalf("Δt° did not vary: %v..%v", minA, maxA)
	}
}
