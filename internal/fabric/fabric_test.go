package fabric

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/runner"
)

// startCoordinator spins up a coordinator on a loopback listener.
func startCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	if opts.Cache == nil {
		c, err := runner.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = c
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	co, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co.Start(ln)
	t.Cleanup(co.Close)
	return co
}

// manualWorker is a hand-driven wire-protocol worker for tests that need
// precise control over when leases are taken and results delivered.
type manualWorker struct {
	t    *testing.T
	conn net.Conn
}

func dialWorker(t *testing.T, addr, id string) *manualWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteMsg(conn, Msg{Kind: KindHello, Role: "worker", ID: id}); err != nil {
		t.Fatal(err)
	}
	return &manualWorker{t: t, conn: conn}
}

// lease polls Get until a lease is granted (or the deadline passes).
func (w *manualWorker) lease() Msg {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := WriteMsg(w.conn, Msg{Kind: KindGet}); err != nil {
			w.t.Fatal(err)
		}
		m, err := ReadMsg(w.conn)
		if err != nil {
			w.t.Fatal(err)
		}
		if m.Kind == KindLease {
			return m
		}
		if m.Kind != KindIdle {
			w.t.Fatalf("unexpected %s reply to get", m.Kind)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.t.Fatal("no lease granted within deadline")
	return Msg{}
}

// finish delivers a result and returns the ack.
func (w *manualWorker) finish(lease Msg, data []byte) Msg {
	w.t.Helper()
	res := Msg{Kind: KindResult, Seq: lease.Seq, Index: lease.Index, CacheKey: lease.Point.CacheKey, Bytes: data}
	if err := WriteMsg(w.conn, res); err != nil {
		w.t.Fatal(err)
	}
	ack, err := ReadMsg(w.conn)
	if err != nil || ack.Kind != KindAck {
		w.t.Fatalf("ack read: %v (%+v)", err, ack)
	}
	return ack
}

// syntheticManifest fabricates n manifest points with valid (but made-up)
// content addresses — the coordinator never resolves refs, so these
// exercise its machinery without running simulations.
func syntheticManifest(n int) []ManifestPoint {
	points := make([]ManifestPoint, n)
	for i := range points {
		key := fmt.Sprintf("%064x", i+1)
		points[i] = ManifestPoint{
			Ref:      experiments.PointRef{Fig: "synthetic", Scale: "quick", Index: i, Key: "synthetic/" + key[56:]},
			CacheKey: key,
		}
	}
	return points
}

// submitAsync runs Submit in a goroutine and returns a channel with its
// outcome.
type submitOutcome struct {
	res *SubmitResult
	err error
}

func submitAsync(ctx context.Context, t *testing.T, addr string, manifest []ManifestPoint) <-chan submitOutcome {
	ch := make(chan submitOutcome, 1)
	go func() {
		res, err := Submit(ctx, addr, "test-client", manifest, t.Logf)
		ch <- submitOutcome{res, err}
	}()
	return ch
}

// TestLeaseExpiryRedispatch holds a lease past its deadline on one worker
// and asserts the point is re-dispatched to another, the sweep completes,
// and the re-dispatch is counted. Run under -race in the CI race sweep.
func TestLeaseExpiryRedispatch(t *testing.T) {
	co := startCoordinator(t, Options{LeaseTimeout: 50 * time.Millisecond, IdleRetry: 5 * time.Millisecond})
	manifest := syntheticManifest(1)
	ch := submitAsync(context.Background(), t, co.Addr(), manifest)

	slow := dialWorker(t, co.Addr(), "slow")
	lease := slow.lease()
	// Sit on the lease; the reaper must hand the point to someone else.
	fast := dialWorker(t, co.Addr(), "fast")
	lease2 := fast.lease()
	if lease2.Index != lease.Index {
		t.Fatalf("re-dispatched index %d, want %d", lease2.Index, lease.Index)
	}
	if ack := fast.finish(lease2, []byte("payload")); ack.Dup {
		t.Fatal("first completion acked as duplicate")
	}

	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Stats.Redispatches < 1 {
		t.Fatalf("stats %+v recorded no re-dispatch", out.res.Stats)
	}
	if out.res.Stats.Computed != 1 {
		t.Fatalf("stats %+v, want 1 computed", out.res.Stats)
	}
	if string(out.res.Bytes[0]) != "payload" {
		t.Fatalf("client received %q", out.res.Bytes[0])
	}
}

// TestDisconnectRequeuesLease drops a worker connection mid-lease and
// asserts the point is immediately re-queued without waiting for the
// deadline.
func TestDisconnectRequeuesLease(t *testing.T) {
	co := startCoordinator(t, Options{LeaseTimeout: time.Hour, IdleRetry: 5 * time.Millisecond})
	manifest := syntheticManifest(1)
	ch := submitAsync(context.Background(), t, co.Addr(), manifest)

	dropper := dialWorker(t, co.Addr(), "dropper")
	dropper.lease()
	dropper.conn.Close() // hour-long deadline: only the disconnect path can save this sweep

	survivor := dialWorker(t, co.Addr(), "survivor")
	lease := survivor.lease()
	survivor.finish(lease, []byte("rescued"))

	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Stats.Redispatches != 1 {
		t.Fatalf("stats %+v, want exactly 1 re-dispatch", out.res.Stats)
	}
}

// TestDuplicateCompletionIdempotent lets a straggler deliver after the
// winner: byte-identical bytes are acked Dup and counted once; differing
// bytes are flagged as a determinism violation with the first result
// kept.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := startCoordinator(t, Options{Cache: cache, LeaseTimeout: 50 * time.Millisecond, IdleRetry: 5 * time.Millisecond})
	manifest := syntheticManifest(2)
	ch := submitAsync(context.Background(), t, co.Addr(), manifest)

	slow := dialWorker(t, co.Addr(), "slow")
	slowLease0 := slow.lease()
	slowLease1 := slow.lease()

	fast := dialWorker(t, co.Addr(), "fast")
	fastLease0 := fast.lease() // re-dispatch of one of slow's points
	fastLease1 := fast.lease() // and the other
	if ack := fast.finish(fastLease0, []byte("winner")); ack.Dup {
		t.Fatal("winner acked as duplicate")
	}
	fast.finish(fastLease1, []byte("winner"))

	// Straggler delivers the identical bytes for one point and different
	// bytes for the other; both are duplicates, only the second is a
	// determinism violation.
	if ack := slow.finish(slowLease0, []byte("winner")); !ack.Dup {
		t.Fatal("identical straggler not acked as duplicate")
	}
	if ack := slow.finish(slowLease1, []byte("DIFFERENT")); !ack.Dup {
		t.Fatal("mismatched straggler not acked as duplicate")
	}

	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	snap := co.Snapshot()
	if snap.Totals.Duplicates != 2 {
		t.Fatalf("totals %+v, want 2 duplicates", snap.Totals)
	}
	if snap.Totals.Mismatches != 1 {
		t.Fatalf("totals %+v, want exactly 1 mismatch", snap.Totals)
	}
	if snap.Totals.Computed != 2 {
		t.Fatalf("totals %+v, want 2 computed (duplicates must not double-count)", snap.Totals)
	}
	// First result won: the client and the cache both hold the winner's
	// bytes for every point.
	for i := range manifest {
		if string(out.res.Bytes[i]) != "winner" {
			t.Fatalf("point %d: client got %q", i, out.res.Bytes[i])
		}
		if data, ok := cache.GetBytes(manifest[i].CacheKey); !ok || string(data) != "winner" {
			t.Fatalf("point %d: cache holds %q, %v", i, data, ok)
		}
	}
}

// TestCoordinatorResumesFromJournal kills a coordinator after one of two
// points completed and asserts a new incarnation (same journal, same
// cache dir) serves the finished point from the journal and only the
// unfinished one is recomputed.
func TestCoordinatorResumesFromJournal(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")
	manifest := syntheticManifest(2)

	cache1, err := runner.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	co1, err := NewCoordinator(Options{Cache: cache1, JournalPath: journalPath, IdleRetry: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co1.Start(ln)

	ch := submitAsync(context.Background(), t, co1.Addr(), manifest)
	w := dialWorker(t, co1.Addr(), "w")
	lease := w.lease()
	w.finish(lease, []byte("first-half"))
	doneIndex := lease.Index
	co1.Close() // kill mid-sweep: client errors out, second point never ran
	if out := <-ch; out.err == nil {
		t.Fatal("submit survived a coordinator kill")
	}

	cache2, err := runner.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	co2, err := NewCoordinator(Options{Cache: cache2, JournalPath: journalPath, IdleRetry: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co2.Start(ln2)
	defer co2.Close()

	ch2 := submitAsync(context.Background(), t, co2.Addr(), manifest)
	w2 := dialWorker(t, co2.Addr(), "w2")
	lease2 := w2.lease()
	if lease2.Index == doneIndex {
		t.Fatalf("resumed coordinator re-leased the journaled point %d", doneIndex)
	}
	w2.finish(lease2, []byte("second-half"))

	out := <-ch2
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Stats.JournalHits != 1 || out.res.Stats.Computed != 1 {
		t.Fatalf("resume stats %+v, want 1 journal hit + 1 computed", out.res.Stats)
	}
	if string(out.res.Bytes[doneIndex]) != "first-half" {
		t.Fatalf("journaled point served %q", out.res.Bytes[doneIndex])
	}
	if !out.res.Cached[doneIndex] {
		t.Fatal("journaled point not marked cached")
	}
}

// TestSubmitRejections pins coordinator-side submission validation.
func TestSubmitRejections(t *testing.T) {
	co := startCoordinator(t, Options{})
	if _, err := Submit(context.Background(), co.Addr(), "c", nil, nil); err == nil {
		t.Fatal("empty manifest accepted")
	}
	bad := syntheticManifest(1)
	bad[0].CacheKey = "not-hex"
	if _, err := Submit(context.Background(), co.Addr(), "c", bad, nil); err == nil || !strings.Contains(err.Error(), "malformed cache key") {
		t.Fatalf("malformed key accepted (err=%v)", err)
	}
}

// TestConcurrentWorkersDrainSweep floods a coordinator with synthetic
// workers under the race detector: every point completes exactly once
// from the client's perspective no matter how many workers race.
func TestConcurrentWorkersDrainSweep(t *testing.T) {
	co := startCoordinator(t, Options{LeaseTimeout: time.Second, IdleRetry: time.Millisecond})
	const n = 24
	manifest := syntheticManifest(n)
	ch := submitAsync(context.Background(), t, co.Addr(), manifest)

	var wg sync.WaitGroup
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", co.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			if WriteMsg(conn, Msg{Kind: KindHello, Role: "worker", ID: "w"}) != nil {
				return
			}
			for {
				if WriteMsg(conn, Msg{Kind: KindGet}) != nil {
					return
				}
				m, err := ReadMsg(conn)
				if err != nil {
					return
				}
				switch m.Kind {
				case KindIdle:
					time.Sleep(time.Millisecond)
				case KindLease:
					res := Msg{Kind: KindResult, Seq: m.Seq, Index: m.Index, CacheKey: m.Point.CacheKey, Bytes: []byte(m.Point.CacheKey)}
					if WriteMsg(conn, res) != nil {
						return
					}
					if _, err := ReadMsg(conn); err != nil {
						return
					}
				}
			}
		}(wkr)
	}

	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	for i, mp := range manifest {
		if string(out.res.Bytes[i]) != mp.CacheKey {
			t.Fatalf("point %d: bytes %q", i, out.res.Bytes[i])
		}
	}
	if out.res.Stats.Computed != n {
		t.Fatalf("stats %+v, want %d computed", out.res.Stats, n)
	}
	co.Close() // unblock any worker waiting in ReadMsg
	wg.Wait()
}

// TestResultsPrecedeSweepDone pins the client stream order when
// accepters race: two completions are recorded, then delivered in
// reverse order. The client must see both results before SweepDone,
// whichever accepter completed the sweep, and SweepDone must carry the
// final stats.
func TestResultsPrecedeSweepDone(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Options{Cache: cache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv, cli := net.Pipe()
	var wg sync.WaitGroup
	defer func() {
		cli.Close() // unblocks both goroutines on any exit path
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		co.serveClient(srv, "test-client")
	}()
	manifest := syntheticManifest(2)
	if err := WriteMsg(cli, Msg{Kind: KindSubmit, Points: manifest}); err != nil {
		t.Fatal(err)
	}
	if acc, err := ReadMsg(cli); err != nil || acc.Kind != KindAccepted || acc.Err != "" {
		t.Fatalf("accept: %v %+v", err, acc)
	}

	type recorded struct {
		sw  *sweepState
		idx int
		m   Msg
	}
	var recs []recorded
	var held []uint64
	for _, mp := range manifest {
		m := Msg{Kind: KindResult, CacheKey: mp.CacheKey, Bytes: []byte(mp.CacheKey)}
		sw, idx, first := co.recordResult("w", m, &held)
		if !first {
			t.Fatalf("point %s: first completion not recorded", mp.Ref.Key)
		}
		recs = append(recs, recorded{sw, idx, m})
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := len(recs) - 1; i >= 0; i-- {
			co.deliverResult(recs[i].sw, "w", recs[i].idx, recs[i].m)
		}
	}()

	for _, want := range []int{1, 0} {
		m, err := ReadMsg(cli)
		if err != nil || m.Kind != KindResult || m.Index != want {
			t.Fatalf("got %v %s index %d, want result %d", err, m.Kind, m.Index, want)
		}
	}
	done, err := ReadMsg(cli)
	if err != nil || done.Kind != KindSweepDone {
		t.Fatalf("got %v %s, want %s", err, done.Kind, KindSweepDone)
	}
	if done.Stats == nil || done.Stats.Computed != 2 {
		t.Fatalf("final stats %+v, want 2 computed", done.Stats)
	}
}
