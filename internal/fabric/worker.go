package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"iobehind/internal/experiments"
	"iobehind/internal/runner"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the fabric coordinator's TCP address.
	Coordinator string
	// ID names this worker in leases and logs. Default: local hostname
	// substitute "worker".
	ID string
	// Executors is the number of concurrent point executors, each with
	// its own coordinator connection. Values < 1 default to 1.
	Executors int
	// Logf receives progress lines. Nil discards them.
	Logf func(format string, args ...any)
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 5 * time.Second
	// maxBackoff caps the reconnect backoff.
	maxBackoff = 5 * time.Second
)

// RunWorker pulls leases from the coordinator and executes them until ctx
// is cancelled. Each executor holds its own connection; a lost connection
// is retried with jittered exponential backoff, and a result computed
// while disconnected is resent after reconnect (the coordinator matches
// it by content address, so it survives lease re-dispatch and even a
// coordinator restart). Returns nil on cancellation.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Coordinator == "" {
		return fmt.Errorf("fabric: worker needs a coordinator address")
	}
	if opts.ID == "" {
		opts.ID = "worker"
	}
	if opts.Executors < 1 {
		opts.Executors = 1
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	var wg sync.WaitGroup
	for i := 0; i < opts.Executors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := &executor{
				opts: opts,
				name: fmt.Sprintf("%s/%d", opts.ID, i),
			}
			e.run(ctx)
		}(i)
	}
	wg.Wait()
	return nil
}

// executor is one pull loop with its own coordinator connection.
type executor struct {
	opts WorkerOptions
	name string

	conn     net.Conn
	stopConn func() bool // context.AfterFunc cleanup for conn
	replied  bool        // conn has delivered a reply
	backoff  time.Duration
	pending  *Msg // computed result not yet acked by the coordinator
}

func (e *executor) logf(format string, args ...any) { e.opts.Logf(format, args...) }

func (e *executor) run(ctx context.Context) {
	defer e.dropConn()
	for ctx.Err() == nil {
		if e.conn == nil {
			if !e.connect(ctx) {
				continue
			}
		}
		// Deliver a result stranded by a connection loss before asking
		// for new work: the coordinator may have re-dispatched the
		// lease, but first-byte-identical-result-wins makes the resend
		// harmless at worst and a straggler win at best.
		if e.pending != nil {
			if !e.deliver(ctx, *e.pending) {
				continue
			}
			e.pending = nil
		}
		if err := WriteMsg(e.conn, Msg{Kind: KindGet, Role: "worker", ID: e.name}); err != nil {
			e.lost(ctx, err)
			continue
		}
		m, ok := e.reply(ctx)
		if !ok {
			continue
		}
		switch m.Kind {
		case KindIdle:
			retry := time.Duration(m.RetryMS) * time.Millisecond
			if retry <= 0 {
				retry = 200 * time.Millisecond
			}
			sleepCtx(ctx, jitter(retry))
		case KindLease:
			res, ok := e.execute(ctx, m)
			if !ok {
				// Cancelled mid-point: the loop ends and the dropped
				// connection re-dispatches the lease.
				continue
			}
			e.pending = &res
			if e.deliver(ctx, res) {
				e.pending = nil
			}
		default:
			e.logf("fabric: worker=%s unexpected %s reply, reconnecting", e.name, m.Kind)
			e.dropConn()
		}
	}
}

// connect dials and introduces the executor; false means backoff taken.
// The backoff resets only once the new connection delivers a reply.
func (e *executor) connect(ctx context.Context) bool {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", e.opts.Coordinator)
	if err != nil {
		e.waitBackoff(ctx, err)
		return false
	}
	if err := WriteMsg(conn, Msg{Kind: KindHello, Role: "worker", ID: e.name}); err != nil {
		conn.Close()
		e.waitBackoff(ctx, err)
		return false
	}
	e.conn = conn
	e.stopConn = context.AfterFunc(ctx, func() { conn.Close() })
	e.replied = false
	return true
}

// reply reads the coordinator's answer on the current connection; a
// failure drops the connection (see lost).
func (e *executor) reply(ctx context.Context) (Msg, bool) {
	m, err := ReadMsg(e.conn)
	if err != nil {
		e.lost(ctx, err)
		return Msg{}, false
	}
	e.replied = true
	e.backoff = 0
	return m, true
}

// lost drops a failed connection and logs the cause, so a coordinator
// speaking another protocol version is named. A connection that failed
// before delivering any reply counts as a failed dial and waits out the
// backoff, so a coordinator that accepts and drops every connection is
// not redialed in a hot loop. A later failure redials at once, and a
// clean close then needs no line; neither does the executor's own
// cancellation.
func (e *executor) lost(ctx context.Context, cause error) {
	replied := e.replied
	e.dropConn()
	switch {
	case ctx.Err() != nil:
	case !replied:
		e.waitBackoff(ctx, cause)
	case !errors.Is(cause, io.EOF):
		e.logf("fabric: worker=%s coordinator=%s: %v, reconnecting", e.name, e.opts.Coordinator, cause)
	}
}

func (e *executor) dropConn() {
	if e.conn != nil {
		if e.stopConn != nil {
			e.stopConn()
			e.stopConn = nil
		}
		e.conn.Close()
		e.conn = nil
	}
}

// waitBackoff sleeps the jittered exponential backoff after a failure.
func (e *executor) waitBackoff(ctx context.Context, cause error) {
	if e.backoff == 0 {
		e.backoff = 100 * time.Millisecond
	} else {
		e.backoff *= 2
		if e.backoff > maxBackoff {
			e.backoff = maxBackoff
		}
	}
	e.logf("fabric: worker=%s coordinator=%s: %v, retrying in %s", e.name, e.opts.Coordinator, cause, e.backoff)
	sleepCtx(ctx, jitter(e.backoff))
}

// deliver sends one result and waits for the ack; false drops the
// connection (the caller retries after reconnect via e.pending).
func (e *executor) deliver(ctx context.Context, res Msg) bool {
	if err := WriteMsg(e.conn, res); err != nil {
		e.lost(ctx, err)
		return false
	}
	ack, ok := e.reply(ctx)
	if !ok {
		return false
	}
	if ack.Kind != KindAck {
		e.dropConn()
		return false
	}
	if ack.Dup {
		e.logf("fabric: worker=%s point=%s lost the race (duplicate)", e.name, res.CacheKey)
	}
	return true
}

// execute builds and runs one leased point, returning the result
// message to deliver. Every failure mode of the point itself —
// undecodable config, cache-key skew, point error, panic — becomes an Err
// result; the executor never dies on a poisoned lease. The second result
// is false when the executor's own cancellation interrupted the run: that
// outcome says nothing about the point, so there is nothing to deliver
// and the lease is re-dispatched like any other dropped one.
func (e *executor) execute(ctx context.Context, lease Msg) (Msg, bool) {
	res := Msg{Kind: KindResult, Role: "worker", ID: e.name, Seq: lease.Seq, Index: lease.Index}
	mp := lease.Point
	if mp == nil {
		res.Err = "lease carried no point"
		return res, true
	}
	res.CacheKey = mp.CacheKey
	p, err := experiments.PointFromJSON(mp.Key, mp.Config)
	if err != nil {
		res.Err = err.Error()
		return res, true
	}
	ckey, err := runner.CacheKey(p)
	if err != nil {
		res.Err = fmt.Sprintf("hash config: %v", err)
		return res, true
	}
	if ckey != mp.CacheKey {
		// Version skew: this binary builds a different point from the
		// config than the submitter hashed. Running it would poison the
		// result store under the submitter's address — refuse instead.
		res.Err = fmt.Sprintf("cache key skew: submitter %s, worker %s — mismatched binaries?", mp.CacheKey, ckey)
		return res, true
	}

	// Run through a single-worker runner for its panic isolation; no
	// cache attached because the coordinator probed its own before
	// leasing the point and stores the result it accepts. Run's error
	// is non-nil only when ctx was cancelled.
	start := time.Now()
	results, err := runner.New(runner.Options{Workers: 1}).Run(ctx, []runner.Point{p})
	if err != nil {
		return Msg{}, false
	}
	r := results[0]
	if r.Err != nil {
		res.Err = r.Err.Error()
		return res, true
	}
	data, err := runner.EncodeEntry(r.Value)
	if err != nil {
		res.Err = fmt.Sprintf("encode result: %v", err)
		return res, true
	}
	res.Bytes = data
	e.logf("fabric: worker=%s point=%s computed in %s (%d bytes)", e.name, p.Key, time.Since(start).Round(time.Millisecond), len(data))
	return res, true
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// jitter spreads d over [d/2, d) so a fleet of workers losing the same
// coordinator does not reconnect in lockstep. The wall clock is the
// entropy source — fabric timing is allowed to be nondeterministic, it
// can never reach a result.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(time.Now().UnixNano())%(d/2)
}
