package mpi

import (
	"fmt"
	"math"
	"testing"

	"iobehind/internal/des"
)

func newTestWorld(t *testing.T, size int) *World {
	t.Helper()
	e := des.NewEngine(1)
	return NewWorld(e, Config{Size: size})
}

func TestWorldBasics(t *testing.T) {
	w := newTestWorld(t, 4)
	if w.Size() != 4 {
		t.Fatalf("size = %d", w.Size())
	}
	if w.Rank(2).ID() != 2 {
		t.Fatalf("rank id = %d", w.Rank(2).ID())
	}
	if len(w.Ranks()) != 4 {
		t.Fatal("Ranks length")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 did not panic")
		}
	}()
	NewWorld(des.NewEngine(1), Config{Size: 0})
}

func TestRunAllRanks(t *testing.T) {
	w := newTestWorld(t, 8)
	var ran int
	if err := w.Run(func(r *Rank) {
		r.Compute(des.Duration(r.ID()+1) * des.Second)
		ran++
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 8 {
		t.Fatalf("ran = %d", ran)
	}
	if !w.AllDone().Done() {
		t.Fatal("AllDone did not fire")
	}
	if got := w.Rank(7).Ended().Seconds(); got != 8 {
		t.Fatalf("rank 7 ended at %v, want 8s", got)
	}
}

func TestDoubleLaunchPanics(t *testing.T) {
	w := newTestWorld(t, 1)
	w.Launch(func(r *Rank) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Launch did not panic")
		}
	}()
	w.Launch(func(r *Rank) {})
}

func TestBarrierSynchronizesRanks(t *testing.T) {
	w := newTestWorld(t, 4)
	var after []des.Time
	if err := w.Run(func(r *Rank) {
		r.Compute(des.Duration(r.ID()) * des.Second)
		r.Barrier()
		after = append(after, r.Now())
	}); err != nil {
		t.Fatal(err)
	}
	for _, at := range after {
		if at < des.Time(3*des.Second) {
			t.Fatalf("rank released at %v before slowest arrival", at)
		}
	}
}

func TestBcastCostGrowsWithSizeAndBytes(t *testing.T) {
	elapsed := func(n int, bytes int64) des.Duration {
		w := NewWorld(des.NewEngine(1), Config{Size: n})
		var end des.Time
		if err := w.Run(func(r *Rank) {
			r.Bcast(0, bytes)
			end = r.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return end.Sub(0)
	}
	small := elapsed(2, 1024)
	big := elapsed(64, 1024)
	bigger := elapsed(64, 1024*1024)
	if !(small < big && big < bigger) {
		t.Fatalf("cost ordering violated: %v, %v, %v", small, big, bigger)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestComputeDrainsInterference(t *testing.T) {
	w := newTestWorld(t, 1)
	if err := w.Run(func(r *Rank) {
		r.AddInterference(0.5)
		r.Compute(des.Second)
		if got := r.Now().Seconds(); math.Abs(got-1.5) > 1e-9 {
			t.Errorf("compute with penalty ended at %v, want 1.5s", got)
		}
		if got := r.ComputeTime().Seconds(); math.Abs(got-1.5) > 1e-9 {
			t.Errorf("computeTime = %v", got)
		}
		// Penalty arriving during the drain is also absorbed.
		w.Engine().After(des.Second/4, func() { r.AddInterference(0.25) })
		r.Compute(des.Second / 2)
		if got := r.Now().Seconds(); math.Abs(got-2.25) > 1e-9 {
			t.Errorf("second compute ended at %v, want 2.25s", got)
		}
		r.AddInterference(-3) // ignored
		r.Compute(0)
		if got := r.Now().Seconds(); math.Abs(got-2.25) > 1e-9 {
			t.Errorf("negative interference affected time: %v", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeHooks(t *testing.T) {
	w := newTestWorld(t, 3)
	var calls []int
	w.AddFinalizeHook(func(r *Rank) { calls = append(calls, r.ID()) })
	if err := w.Run(func(r *Rank) {
		r.Compute(des.Duration(r.ID()) * des.Second)
		r.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(calls) != "[0 1 2]" {
		t.Fatalf("finalize calls = %v", calls)
	}
}

func TestDoubleFinalizePanics(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(r *Rank) {
		r.Finalize()
		r.Finalize()
	})
	if err == nil {
		t.Fatal("double finalize did not fail")
	}
}

func TestDeadlockDetected(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Barrier() // rank 1 never arrives
		}
	})
	if err == nil {
		t.Fatal("deadlocked world reported success")
	}
}

// TestFailedRunLeavesNoParkedProcs: a run that fails — a rank panics, or
// ranks deadlock — unwinds the processes still parked, so a long-lived
// caller leaks no goroutines per failed world.
func TestFailedRunLeavesNoParkedProcs(t *testing.T) {
	for _, c := range []struct {
		name string
		main func(*Rank)
	}{
		{"panic", func(r *Rank) {
			if r.ID() == 0 {
				panic("boom")
			}
			r.Barrier()
		}},
		{"deadlock", func(r *Rank) {
			if r.ID() != 0 {
				r.Barrier()
			}
		}},
	} {
		w := newTestWorld(t, 8)
		if err := w.Run(c.main); err == nil {
			t.Fatalf("%s: the run reported success", c.name)
		}
		if s := w.Engine().Stalled(); len(s) != 0 {
			t.Fatalf("%s: %d processes still parked after the failed run", c.name, len(s))
		}
	}
}

func TestJitterBounded(t *testing.T) {
	w := newTestWorld(t, 1)
	if err := w.Run(func(r *Rank) {
		for i := 0; i < 100; i++ {
			j := r.Jitter(des.Millisecond)
			if j < 0 || j >= des.Millisecond {
				t.Errorf("jitter %v out of range", j)
			}
		}
		if r.Jitter(0) != 0 {
			t.Error("Jitter(0) != 0")
		}
	}); err != nil {
		t.Fatal(err)
	}
}
