package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/pfs"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Degrade:     "degrade",
		Outage:      "outage",
		ServerStall: "server-stall",
		Straggler:   "straggler",
		IOError:     "io-error",
		Kind(42):    "kind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestConfigEmpty(t *testing.T) {
	if !(Config{}).Empty() {
		t.Error("zero Config not empty")
	}
	if !(Config{Random: &RandomConfig{Count: 0, Horizon: des.Second}}).Empty() {
		t.Error("zero-count random batch not empty")
	}
	if (Config{Windows: []Window{{Kind: Degrade, Dur: des.Second, Factor: 0.5}}}).Empty() {
		t.Error("scripted window reported empty")
	}
	if (Config{Random: &RandomConfig{Count: 1, Horizon: des.Second}}).Empty() {
		t.Error("random batch reported empty")
	}
}

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one mentioning %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want mention of %q", r, want)
		}
	}()
	f()
}

func TestInvalidWindowsPanicAtConstruction(t *testing.T) {
	e := des.NewEngine(1)
	cases := []struct {
		name string
		w    Window
		want string
	}{
		{"zero duration", Window{Kind: Degrade, Factor: 0.5}, "non-positive duration"},
		{"negative start", Window{Kind: Outage, Start: -1, Dur: des.Second}, "before t=0"},
		{"degrade factor 0", Window{Kind: Degrade, Dur: des.Second}, "outside (0,1)"},
		{"degrade factor 1", Window{Kind: Degrade, Dur: des.Second, Factor: 1}, "outside (0,1)"},
		{"stall factor below 1", Window{Kind: ServerStall, Dur: des.Second, Factor: 0.5}, "below 1"},
		{"straggler factor below 1", Window{Kind: Straggler, Dur: des.Second, Factor: 0}, "below 1"},
		{"io-error prob 0", Window{Kind: IOError, Dur: des.Second}, "outside (0,1]"},
		{"io-error prob above 1", Window{Kind: IOError, Dur: des.Second, Prob: 1.5}, "outside (0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, tc.want, func() {
				New(e, nil, Config{Windows: []Window{tc.w}})
			})
		})
	}
}

func TestRandomGenerationDeterministic(t *testing.T) {
	rc := RandomConfig{Seed: 42, Count: 8, Horizon: 10 * des.Second}
	a, b := rc.generate(), rc.generate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different windows")
	}
	if len(a) != 8 {
		t.Fatalf("generated %d windows, want 8", len(a))
	}
	for _, w := range a {
		if err := w.validate(); err != nil {
			t.Errorf("generated invalid window: %v", err)
		}
		if w.Start < 0 || w.Start >= des.Time(rc.Horizon) {
			t.Errorf("window start %v outside [0, %v)", w.Start, rc.Horizon)
		}
		if w.Kind == Outage || w.Kind == Straggler || w.Class != pfs.Write {
			t.Errorf("random batch drew a %s window on %s; only scripted windows are outages or stragglers", w.Kind, w.Class)
		}
	}
	rc.Seed = 43
	if reflect.DeepEqual(a, rc.generate()) {
		t.Fatal("different seeds generated identical windows")
	}
}

func TestInjectorResolvesSameWindowsForSameConfig(t *testing.T) {
	cfg := Config{
		Windows: []Window{{Kind: Degrade, Class: pfs.Write,
			Start: des.Time(des.Second), Dur: des.Second, Factor: 0.5}},
		Random: &RandomConfig{Seed: 7, Count: 5, Horizon: 8 * des.Second},
	}
	w1 := New(des.NewEngine(1), nil, cfg).windows
	w2 := New(des.NewEngine(99), nil, cfg).windows
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("window resolution depends on the engine, not only the config")
	}
	if !reflect.DeepEqual(w1, cfg.Resolve()) {
		t.Fatal("the injector schedules other windows than Config.Resolve lists")
	}
	for i := 1; i < len(w1); i++ {
		if w1[i].Start < w1[i-1].Start {
			t.Fatal("resolved windows not sorted by start")
		}
	}
}

func TestOverlapsSemantics(t *testing.T) {
	inj := New(des.NewEngine(1), nil, Config{Windows: []Window{
		{Kind: Degrade, Class: pfs.Write,
			Start: des.Time(des.Second), Dur: des.Second, Factor: 0.5},
		{Kind: Straggler, Node: 0, Factor: 2,
			Start: des.Time(5 * des.Second), Dur: des.Second},
	}})
	sec := func(s float64) des.Time { return des.Time(des.DurationOf(s)) }
	cases := []struct {
		class    pfs.Class
		from, to des.Time
		want     bool
	}{
		{pfs.Write, 0, sec(1), false},         // half-open: to == Start misses
		{pfs.Write, sec(1), sec(1.5), true},   // inside
		{pfs.Write, sec(2), sec(3), false},    // from == End misses
		{pfs.Write, sec(1.9), sec(4.9), true}, // spans the tail
		{pfs.Read, sec(1), sec(2), false},     // degrade is class-scoped
		{pfs.Read, sec(5), sec(5.5), true},    // straggler hits every class
		{pfs.Write, sec(5.5), sec(7), true},   // straggler, write side
		{pfs.Write, sec(6), sec(7), false},    // after everything
	}
	for _, tc := range cases {
		if got := inj.Overlaps(tc.class, tc.from, tc.to); got != tc.want {
			t.Errorf("Overlaps(%v, %v, %v) = %v, want %v",
				tc.class, tc.from, tc.to, got, tc.want)
		}
	}
}

func TestCapacityFactorsFollowWindowBoundaries(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	inj := New(e, fs, Config{Windows: []Window{
		{Kind: Degrade, Class: pfs.Write,
			Start: des.Time(des.Second), Dur: des.Second, Factor: 0.5},
		{Kind: Outage, Class: pfs.Read,
			Start: des.Time(2 * des.Second), Dur: des.Second},
	}})
	type probe struct{ w, r float64 }
	got := map[float64]probe{}
	for _, at := range []float64{0.5, 1.5, 2.5, 3.5} {
		at := at
		e.Schedule(des.Time(des.DurationOf(at)), des.PrioLate, func() {
			got[at] = probe{fs.FaultFactor(pfs.Write), fs.FaultFactor(pfs.Read)}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[float64]probe{
		0.5: {1, 1},
		1.5: {0.5, 1},
		2.5: {1, 0},
		3.5: {1, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fault factors over time = %v, want %v", got, want)
	}
	if inj.Activations() != 2 {
		t.Fatalf("activations = %d, want 2", inj.Activations())
	}
}

func TestOverlappingWindowsStrictestWins(t *testing.T) {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	inj := New(e, fs, Config{Windows: []Window{
		{Kind: Degrade, Class: pfs.Write,
			Start: des.Time(des.Second), Dur: 2 * des.Second, Factor: 0.5},
		{Kind: Degrade, Class: pfs.Write,
			Start: des.Time(2 * des.Second), Dur: 2 * des.Second, Factor: 0.2},
		{Kind: ServerStall, Class: pfs.Write,
			Start: des.Time(des.Second), Dur: 2 * des.Second, Factor: 2},
		{Kind: ServerStall, Class: pfs.Write,
			Start: des.Time(des.Second), Dur: des.Second, Factor: 5},
	}})
	type probe struct {
		capf, stall float64
	}
	got := map[float64]probe{}
	for _, at := range []float64{1.5, 2.5, 3.5, 4.5} {
		at := at
		e.Schedule(des.Time(des.DurationOf(at)), des.PrioLate, func() {
			got[at] = probe{fs.FaultFactor(pfs.Write), inj.QueueFactor(pfs.Write)}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[float64]probe{
		1.5: {0.5, 5}, // both stalls active: max wins
		2.5: {0.2, 2}, // both degrades active: min wins
		3.5: {0.2, 1},
		4.5: {1, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strictest-wins state = %v, want %v", got, want)
	}
}

func TestNodeSlowdownAndErrorProb(t *testing.T) {
	e := des.NewEngine(1)
	inj := New(e, nil, Config{Windows: []Window{
		{Kind: Straggler, Node: 3, Factor: 4,
			Start: des.Time(des.Second), Dur: des.Second},
		{Kind: IOError, Class: pfs.Write, Prob: 0.3,
			Start: des.Time(des.Second), Dur: des.Second},
	}})
	var slowIn, slowOther, slowAfter, probIn, probRead float64
	e.Schedule(des.Time(1500*des.Millisecond), des.PrioLate, func() {
		slowIn = inj.NodeSlowdown(3)
		slowOther = inj.NodeSlowdown(2)
		probIn = inj.ErrorProb(pfs.Write)
		probRead = inj.ErrorProb(pfs.Read)
	})
	e.Schedule(des.Time(2500*des.Millisecond), des.PrioLate, func() {
		slowAfter = inj.NodeSlowdown(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if slowIn != 4 || slowOther != 1 || slowAfter != 1 {
		t.Fatalf("slowdowns in/other/after = %v/%v/%v, want 4/1/1", slowIn, slowOther, slowAfter)
	}
	if probIn != 0.3 || probRead != 0 {
		t.Fatalf("error probs write/read = %v/%v, want 0.3/0", probIn, probRead)
	}
}

// --- Integration with the ADIO agent -------------------------------------

// runOne executes a single async write of bytes through an agent wired to
// the scenario (paced by limit when > 0) and returns the completion time
// and the agent.
func runOne(t *testing.T, cfg Config, agentCfg adio.Config, bytes int64, limit float64) (des.Time, *adio.Agent, *Injector) {
	t.Helper()
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	var inj *Injector
	if !cfg.Empty() {
		inj = New(e, fs, cfg)
	}
	a := adio.NewAgent(e, fs, nil, agentCfg)
	if inj != nil {
		a.SetFaults(inj)
	}
	if limit > 0 {
		a.SetLimit(limit)
	}
	var done des.Time
	e.Spawn("app", func(p *des.Proc) {
		a.Submit(pfs.Write, bytes, true).Wait(p)
		done = p.Now()
		a.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return done, a, inj
}

func TestOutageStallsTransferUntilWindowEnds(t *testing.T) {
	// 10 MB at 100 MB/s is 0.1 s — but the write channel is out for the
	// first second, so the transfer stalls (capacity floored at 1 B/s, it
	// never deadlocks) and completes shortly after the window closes.
	done, _, _ := runOne(t, Config{Windows: []Window{
		{Kind: Outage, Class: pfs.Write, Start: 0, Dur: des.Second},
	}}, adio.Config{}, 10e6, 0)
	if got := done.Seconds(); got < 1.0 || got > 1.3 {
		t.Fatalf("outage-spanning write done at %vs, want ~1.1s", got)
	}
}

func TestDegradeWindowOpeningMidRequestSlowsLaterChunks(t *testing.T) {
	// A limited request is chunked (the limit sits above the channel, so
	// pacing adds no sleeps); a degrade window opening mid-request must
	// slow the chunks still in flight — the agent re-reads the fault state
	// per sub-request, and the fluid PFS re-rates active flows.
	cfg := adio.Config{SubRequestSize: 10e6}
	clean, _, _ := runOne(t, Config{}, cfg, 50e6, 200e6)
	faulted, _, _ := runOne(t, Config{Windows: []Window{
		{Kind: Degrade, Class: pfs.Write, Factor: 0.1,
			Start: des.Time(250 * des.Millisecond), Dur: 10 * des.Second},
	}}, cfg, 50e6, 200e6)
	if got := clean.Seconds(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("clean run took %vs, want ~0.5s", got)
	}
	// ~2.5 chunks at full speed, the rest at 10 MB/s: well past 2 s.
	if faulted.Seconds() < 2 {
		t.Fatalf("mid-request degrade ignored: run took %vs", faulted.Seconds())
	}
}

func TestStragglerSlowsOnlyItsNode(t *testing.T) {
	window := Config{Windows: []Window{
		{Kind: Straggler, Node: 3, Factor: 2, Start: 0, Dur: 10 * des.Second},
	}}
	slow, _, _ := runOne(t, window, adio.Config{Tag: pfs.Tag{Node: 3}}, 100e6, 0)
	other, _, _ := runOne(t, window, adio.Config{Tag: pfs.Tag{Node: 2}}, 100e6, 0)
	if got := other.Seconds(); math.Abs(got-1) > 0.01 {
		t.Fatalf("healthy node took %vs, want ~1s", got)
	}
	if got := slow.Seconds(); math.Abs(got-2) > 0.02 {
		t.Fatalf("straggler node took %vs, want ~2s", got)
	}
}

func TestIOErrorWindowExhaustsRetries(t *testing.T) {
	// Certain failure: every attempt fails, the agent retries four
	// times, abandons the request, and delivers nothing.
	done, a, _ := runOne(t, Config{Windows: []Window{
		{Kind: IOError, Class: pfs.Write, Prob: 1, Start: 0, Dur: 100 * des.Second},
	}}, adio.Config{}, 10e6, 0)
	if a.Retries() != 4 {
		t.Fatalf("retries = %d, want 4", a.Retries())
	}
	if a.RetryExhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", a.RetryExhausted())
	}
	if a.TotalBytes(pfs.Write) != 0 {
		t.Fatalf("abandoned request counted %d delivered bytes", a.TotalBytes(pfs.Write))
	}
	if done == 0 {
		t.Fatal("request never completed")
	}
}

func TestSeededScenarioReproducible(t *testing.T) {
	// The acceptance bar: one seeded scenario, two full runs, identical
	// virtual end times and identical agent accounting.
	cfg := Config{
		Windows: []Window{{Kind: IOError, Class: pfs.Write, Prob: 0.3,
			Start: 0, Dur: 10 * des.Second}},
		Random: &RandomConfig{Seed: 5, Count: 4, Horizon: 5 * des.Second},
	}
	type outcome struct {
		done    des.Time
		retries int
		bytes   int64
	}
	run := func() outcome {
		done, a, _ := runOne(t, cfg, adio.Config{SubRequestSize: 1e6}, 50e6, 60e6)
		return outcome{done, a.Retries(), a.TotalBytes(pfs.Write)}
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("seeded scenario not reproducible: %+v vs %+v", first, second)
	}
	if first.retries == 0 {
		t.Fatal("scenario exercised no retries — assertion has no teeth")
	}
}
