package mpiio

import (
	"math"
	"testing"

	"iobehind/internal/adio"
	"iobehind/internal/des"
	"iobehind/internal/mpi"
	"iobehind/internal/pfs"
)

func newSystem(t *testing.T, size int) (*des.Engine, *mpi.World, *System) {
	t.Helper()
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: size})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	return e, w, NewSystem(w, fs, adio.Config{})
}

func TestBlockingWriteTakesTransferTime(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		f.WriteAt(0, 100e6) // 1 s at 100 MB/s
		if got := r.Now().Seconds(); math.Abs(got-1) > 1e-6 {
			t.Errorf("write took %v, want 1s", got)
		}
		f.ReadAt(0, 50e6) // 0.5 s
		if got := r.Now().Seconds(); math.Abs(got-1.5) > 1e-6 {
			t.Errorf("after read: %v, want 1.5s", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncOverlapsCompute(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		req := f.IwriteAt(0, 100e6) // 1 s of I/O
		r.Compute(2 * des.Second)   // longer than the I/O
		req.Wait()                  // must return immediately
		if got := r.Now().Seconds(); math.Abs(got-2) > 1e-6 {
			t.Errorf("total = %v, want 2s (fully hidden I/O)", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitBlocksWhenIOOutlastsCompute(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		req := f.IwriteAt(0, 100e6)      // 1 s of I/O
		r.Compute(200 * des.Millisecond) // shorter than the I/O
		req.Wait()
		if got := r.Now().Seconds(); math.Abs(got-1) > 1e-6 {
			t.Errorf("total = %v, want 1s (wait till I/O done)", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		req := f.IwriteAt(0, 1000)
		req.Wait()
		req.Wait()
	})
	if err == nil {
		t.Fatal("double wait did not fail the run")
	}
}

func TestRequestAccessors(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "data.bin")
		if f.Name() != "data.bin" || f.Rank() != r {
			t.Error("file accessors")
		}
		req := f.IreadAt(0, 1234)
		if req.Class() != pfs.Read || req.Bytes() != 1234 || req.File() != f {
			t.Error("request accessors")
		}
		if req.SubmittedAt() != r.Now() {
			t.Error("SubmittedAt")
		}
		req.Wait()
		if req.Stats().Bytes != 1234 {
			t.Error("stats bytes")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAgentLimitAppliesToFileOps(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	if err := w.Run(func(r *mpi.Rank) {
		sys.Agent(r.ID()).SetLimit(10e6)
		f := sys.Open(r, "out.dat")
		req := f.IwriteAt(0, 100e6)
		req.Wait()
		if got := r.Now().Seconds(); math.Abs(got-10) > 1e-2 {
			t.Errorf("limited write took %v, want ~10s", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

type recordingInterceptor struct {
	events []string
	ops    []Op
	opened []string
}

func (ri *recordingInterceptor) AsyncSubmitted(r *mpi.Rank, req *Request) {
	ri.events = append(ri.events, "submit")
}
func (ri *recordingInterceptor) WaitBegin(r *mpi.Rank, req *Request) {
	ri.events = append(ri.events, "wait-begin")
}
func (ri *recordingInterceptor) WaitEnd(r *mpi.Rank, req *Request) {
	ri.events = append(ri.events, "wait-end")
}
func (ri *recordingInterceptor) SyncBegin(r *mpi.Rank, op Op) {
	ri.events = append(ri.events, "sync-begin")
	ri.ops = append(ri.ops, op)
}
func (ri *recordingInterceptor) SyncEnd(r *mpi.Rank, op Op, s, e des.Time) {
	ri.events = append(ri.events, "sync-end")
}
func (ri *recordingInterceptor) FileOpened(r *mpi.Rank, f *File) {
	ri.opened = append(ri.opened, f.Name())
}

func TestInterceptorSeesAllCalls(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	ri := &recordingInterceptor{}
	sys.SetInterceptor(ri)
	if sys.Interceptor() != ri {
		t.Fatal("interceptor not installed")
	}
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		f.WriteAt(0, 1000)
		req := f.IwriteAt(0, 1000)
		r.Compute(des.Second)
		req.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	want := "sync-begin,sync-end,submit,wait-begin,wait-end"
	got := ""
	for i, ev := range ri.events {
		if i > 0 {
			got += ","
		}
		got += ev
	}
	if got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
}

func TestAgentsClosedWhenWorldFinishes(t *testing.T) {
	e, w, sys := newSystem(t, 4)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		f.WriteAt(0, 1000)
	}); err != nil {
		t.Fatal(err)
	}
	if stalled := e.Stalled(); len(stalled) != 0 {
		names := make([]string, len(stalled))
		for i, p := range stalled {
			names[i] = p.Name()
		}
		t.Fatalf("stalled procs after run: %v", names)
	}
	sys.Close() // idempotent
}

func TestMultiRankIOContention(t *testing.T) {
	_, w, sys := newSystem(t, 4)
	ends := make([]float64, 4)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		f.WriteAt(0, 25e6) // 4 ranks sharing 100 MB/s → 1 s each
		ends[r.ID()] = r.Now().Seconds()
	}); err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		if math.Abs(end-1) > 1e-3 {
			t.Errorf("rank %d finished at %v, want ~1s", i, end)
		}
	}
}

func TestCollectiveWriteAggregates(t *testing.T) {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: 8, RanksPerNode: 4})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	sys := NewSystem(w, fs, adio.Config{})
	var maxConcurrent int
	fs.SetObserver(func(now des.Time, class pfs.Class, flows []*pfs.Flow) {
		if len(flows) > maxConcurrent {
			maxConcurrent = len(flows)
		}
	})
	ends := make([]des.Time, 8)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "shared.dat")
		f.WriteAtAll(0, 10e6)
		ends[r.ID()] = r.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// Two nodes → two aggregators → at most 2 concurrent flows, not 8.
	if maxConcurrent > 2 {
		t.Fatalf("collective write used %d concurrent flows, want ≤ 2", maxConcurrent)
	}
	// All ranks leave together: 80 MB total at 100 MB/s ≈ 0.8 s.
	for i, end := range ends {
		if math.Abs(end.Seconds()-ends[0].Seconds()) > 1e-9 {
			t.Fatalf("rank %d left at %v, rank 0 at %v", i, end, ends[0])
		}
		if end.Seconds() < 0.8 || end.Seconds() > 1.0 {
			t.Fatalf("collective took %v, want ≈0.8s", end)
		}
	}
}

func TestCollectiveReadAndTracing(t *testing.T) {
	e := des.NewEngine(1)
	w := mpi.NewWorld(e, mpi.Config{Size: 4, RanksPerNode: 4})
	fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
	sys := NewSystem(w, fs, adio.Config{})
	ri := &recordingInterceptor{}
	sys.SetInterceptor(ri)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "shared.dat")
		f.ReadAtAll(0, 5e6)
	}); err != nil {
		t.Fatal(err)
	}
	// Every rank sees a sync begin/end pair.
	begins, ends := 0, 0
	for _, ev := range ri.events {
		switch ev {
		case "sync-begin":
			begins++
		case "sync-end":
			ends++
		}
	}
	if begins != 4 || ends != 4 {
		t.Fatalf("sync events: %d begins, %d ends", begins, ends)
	}
	_ = e
}

// TestCollectiveOffsetModeling pins the documented modeling decision in
// collective.go: the offset is reported to the interceptor verbatim, and —
// because the fluid file-system model is offset-agnostic — it must not
// change the collective's timing.
func TestCollectiveOffsetModeling(t *testing.T) {
	run := func(offset int64) (end des.Time, ops []Op) {
		e := des.NewEngine(1)
		w := mpi.NewWorld(e, mpi.Config{Size: 4, RanksPerNode: 4})
		fs := pfs.New(e, pfs.Config{WriteCapacity: 100e6, ReadCapacity: 100e6})
		sys := NewSystem(w, fs, adio.Config{})
		ri := &recordingInterceptor{}
		sys.SetInterceptor(ri)
		if err := w.Run(func(r *mpi.Rank) {
			f := sys.Open(r, "shared.dat")
			f.WriteAtAll(offset, 10e6)
			if r.ID() == 0 {
				end = r.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return end, ri.ops
	}
	endZero, opsZero := run(0)
	endFar, opsFar := run(1 << 40)
	if endZero != endFar {
		t.Errorf("offset changed collective timing: %v vs %v", endZero, endFar)
	}
	if len(opsZero) != 4 || len(opsFar) != 4 {
		t.Fatalf("ops recorded: %d and %d, want 4 each", len(opsZero), len(opsFar))
	}
	for _, op := range opsFar {
		if op.Offset != 1<<40 {
			t.Errorf("interceptor saw offset %d, want %d", op.Offset, int64(1)<<40)
		}
		if !op.Collective {
			t.Error("collective op not flagged Collective")
		}
	}
}

func TestInterceptorSeesOffsets(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	ri := &recordingInterceptor{}
	sys.SetInterceptor(ri)
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		f.WriteAt(4096, 1000)
		req := f.IreadAt(8192, 500)
		if req.Offset() != 8192 {
			t.Errorf("Request.Offset = %d, want 8192", req.Offset())
		}
		req.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	if len(ri.ops) != 1 || ri.ops[0].Offset != 4096 || ri.ops[0].Bytes != 1000 {
		t.Fatalf("sync op = %+v, want offset 4096 bytes 1000", ri.ops)
	}
	if ri.ops[0].Collective {
		t.Error("plain sync op flagged Collective")
	}
	if len(ri.opened) != 1 || ri.opened[0] != "out.dat" {
		t.Errorf("FileOpened saw %v, want [out.dat]", ri.opened)
	}
}

func TestTeeFansOutInOrder(t *testing.T) {
	_, w, sys := newSystem(t, 1)
	a, b := &recordingInterceptor{}, &recordingInterceptor{}
	sys.SetInterceptor(Tee(a, nil, b))
	if err := w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, "out.dat")
		f.WriteAt(0, 1000)
		req := f.IwriteAt(0, 1000)
		req.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	if len(a.events) != len(b.events) || len(a.events) != 5 {
		t.Fatalf("tee delivered %d/%d events, want 5/5", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("tee order diverged: %v vs %v", a.events, b.events)
		}
	}
	if len(a.opened) != 1 || len(b.opened) != 1 {
		t.Errorf("FileOpened fan-out: %v / %v", a.opened, b.opened)
	}
}
