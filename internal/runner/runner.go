// Package runner is the parallel sweep engine behind the experiment
// suite. Every figure of the paper decomposes into independent points —
// one deterministic virtual-time simulation per (figure, scale, strategy,
// rank count) cell — and the runner fans those points across a worker
// pool, collects the results in their input order regardless of
// completion order, and optionally memoizes completed points on disk
// (see Cache) so a re-run only recomputes points whose configuration
// changed.
//
// The contract that makes this safe is the one the DES substrate already
// guarantees: a point's result is a pure function of its configuration.
// Each point owns a private engine seeded from its spec, so running
// points concurrently cannot change any result — only the wall time.
//
// A point that panics does not kill the sweep: the panic is captured as a
// *PanicError on that point's Result and the remaining points proceed.
// Cancelling the context stops feeding new points; points never started
// report the context's error.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Point is one independent unit of a sweep.
type Point struct {
	// Key names the point within its sweep (e.g. "fig05/quick/ranks=64/run=1").
	// It participates in the cache key, so it must be stable across runs
	// and unique within the cache directory's lifetime.
	Key string
	// Config fully describes the computation: strategy, tolerances, rank
	// count, file-system config, workload parameters. It is canonically
	// JSON-encoded and hashed into the cache key, so any config change
	// invalidates the cached result. It must be json-marshalable.
	Config any
	// New allocates the zero result the cache decodes into (for example
	// func() any { return new(tmio.Report) }). A nil New disables caching
	// for this point.
	New func() any
	// Run computes the point. When New is set, Run must return the same
	// pointer type New allocates (so cache hits and fresh runs are
	// indistinguishable to the caller) and the pointed-to value must be
	// gob-encodable.
	Run func(ctx context.Context) (any, error)
}

// Result is one point's outcome, delivered at the point's input index.
type Result struct {
	Key    string
	Value  any
	Err    error
	Cached bool // satisfied from the cache without running
}

// PanicError reports a point that panicked; the sweep itself continues.
type PanicError struct {
	Key   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("point %s panicked: %v", e.Key, e.Value)
}

// Options configures a Runner.
type Options struct {
	// Workers is the pool size. Values < 1 default to GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes completed points on disk.
	Cache *Cache
}

// Runner executes sweeps. A Runner is safe for concurrent use; each Run
// call gets its own worker pool.
type Runner struct {
	workers int
	cache   *Cache
}

// New builds a runner from opts.
func New(opts Options) *Runner {
	w := opts.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: w, cache: opts.Cache}
}

// Serial returns a single-worker, cache-less runner — the configuration
// that reproduces the historical serial execution order exactly.
func Serial() *Runner { return New(Options{Workers: 1}) }

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// Cache returns the attached cache (nil when uncached).
func (r *Runner) Cache() *Cache { return r.cache }

// Run executes all points and returns one Result per point, in input
// order. Point failures (errors and panics) are reported per Result, not
// as the call's error; the error return is non-nil only when ctx was
// cancelled, in which case unstarted points carry ctx.Err().
func (r *Runner) Run(ctx context.Context, points []Point) ([]Result, error) {
	results := make([]Result, len(points))
	if len(points) == 0 {
		return results, ctx.Err()
	}
	workers := r.workers
	if workers > len(points) {
		workers = len(points)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runPoint(ctx, points[i])
			}
		}()
	}
	for i := range points {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(points); j++ {
				results[j] = Result{Key: points[j].Key, Err: ctx.Err()}
			}
			// The channel is unbuffered, so indices from i on were never
			// handed to a worker; only this loop writes their results.
			// Points a worker already holds check ctx themselves.
			close(idx)
			wg.Wait()
			return results, ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	return results, ctx.Err()
}

// runPoint executes one point: cache probe, isolated run, cache fill.
func (r *Runner) runPoint(ctx context.Context, p Point) (res Result) {
	res.Key = p.Key
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}

	var ckey string
	if r.cache != nil && p.New != nil {
		var err error
		ckey, err = CacheKey(p)
		if err != nil {
			res.Err = fmt.Errorf("runner: hash config of %s: %w", p.Key, err)
			return res
		}
		if v, ok := r.cache.Get(ckey, p.New); ok {
			res.Value, res.Cached = v, true
			return res
		}
	}

	// Panic isolation: a panicking point becomes an error on its own
	// Result; the other workers keep draining the sweep.
	defer func() {
		if rec := recover(); rec != nil {
			res.Value = nil
			res.Err = &PanicError{Key: p.Key, Value: rec, Stack: debug.Stack()}
		}
	}()
	v, err := p.Run(ctx)
	if err != nil {
		res.Err = err
		return res
	}
	res.Value = v
	if r.cache != nil && ckey != "" {
		r.cache.Put(ckey, v)
	}
	return res
}

// FirstErr returns the first non-nil error in input order (nil if none) —
// the error the historical serial loop would have stopped at.
func FirstErr(results []Result) error {
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// CachedCount reports how many results were satisfied from the cache.
func CachedCount(results []Result) int {
	n := 0
	for _, res := range results {
		if res.Cached {
			n++
		}
	}
	return n
}
