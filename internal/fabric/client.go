package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"iobehind/internal/runner"
)

// ManifestFor turns points into the wire manifest: each point's key,
// its config's canonical JSON and its content address.
func ManifestFor(points []runner.Point) ([]ManifestPoint, error) {
	manifest := make([]ManifestPoint, len(points))
	for i, p := range points {
		if p.New == nil {
			return nil, fmt.Errorf("fabric: point %s has no result allocator; it cannot travel the fabric", p.Key)
		}
		config, err := json.Marshal(p.Config)
		if err != nil {
			return nil, fmt.Errorf("fabric: encode config of %s: %w", p.Key, err)
		}
		ckey, err := runner.CacheKey(p)
		if err != nil {
			return nil, fmt.Errorf("fabric: hash config of %s: %w", p.Key, err)
		}
		manifest[i] = ManifestPoint{Key: p.Key, Config: config, CacheKey: ckey}
	}
	return manifest, nil
}

// SubmitResult is one sweep's outcome as received from the coordinator.
type SubmitResult struct {
	// Bytes holds each point's gob entry bytes (nil where Errs is set).
	Bytes [][]byte
	// Errs holds per-point failure messages ("" for success).
	Errs []string
	// Cached marks points served from the coordinator's cache without a
	// worker computation this sweep.
	Cached []bool
	// Stats is the coordinator's final accounting for the sweep.
	Stats SweepStats
}

// Submit sends a manifest to the coordinator at addr and blocks until
// every point has a result (streamed as workers finish them) or ctx is
// cancelled. id names the client in coordinator logs; logf (may be nil)
// receives progress lines.
func Submit(ctx context.Context, addr, id string, manifest []ManifestPoint, logf func(string, ...any)) (*SubmitResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(manifest) == 0 {
		return nil, fmt.Errorf("fabric: empty manifest")
	}
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: dial coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if err := WriteMsg(conn, Msg{Kind: KindHello, Role: "client", ID: id}); err != nil {
		return nil, err
	}
	if err := WriteMsg(conn, Msg{Kind: KindSubmit, ID: id, Points: manifest}); err != nil {
		return nil, err
	}
	acc, err := ReadMsg(conn)
	if err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("fabric: read accept: %w", err))
	}
	if acc.Kind != KindAccepted {
		return nil, fmt.Errorf("fabric: coordinator replied %s to submit", acc.Kind)
	}
	if acc.Err != "" {
		return nil, fmt.Errorf("fabric: submission rejected: %s", acc.Err)
	}
	if acc.Stats != nil {
		logf("fabric: submitted %d points (%d from cache)",
			acc.Stats.Points, acc.Stats.CacheHits)
	}

	out := &SubmitResult{
		Bytes:  make([][]byte, len(manifest)),
		Errs:   make([]string, len(manifest)),
		Cached: make([]bool, len(manifest)),
	}
	got := make([]bool, len(manifest))
	received := 0
	for {
		m, err := ReadMsg(conn)
		if err != nil {
			return nil, ctxErr(ctx, fmt.Errorf("fabric: sweep interrupted after %d/%d results: %w", received, len(manifest), err))
		}
		switch m.Kind {
		case KindResult:
			if m.Index < 0 || m.Index >= len(manifest) {
				return nil, fmt.Errorf("fabric: result index %d out of range", m.Index)
			}
			if got[m.Index] {
				continue // coordinator resent; first delivery stands
			}
			got[m.Index] = true
			received++
			out.Bytes[m.Index] = m.Bytes
			out.Errs[m.Index] = m.Err
			out.Cached[m.Index] = m.Cached
		case KindSweepDone:
			if m.Stats != nil {
				out.Stats = *m.Stats
			}
			for i, ok := range got {
				if !ok {
					return nil, fmt.Errorf("fabric: sweep done but point %s never reported", manifest[i].Key)
				}
			}
			return out, nil
		default:
			return nil, fmt.Errorf("fabric: unexpected %s message mid-sweep", m.Kind)
		}
	}
}

// DecodeResults turns a SubmitResult back into runner.Results in input
// order, decoding each entry with its point's allocator — the shape the
// figure assemblers already consume, so a distributed sweep plugs in
// where a local runner.Run call was.
func DecodeResults(points []runner.Point, sub *SubmitResult) ([]runner.Result, error) {
	if len(points) != len(sub.Bytes) {
		return nil, fmt.Errorf("fabric: %d points vs %d results", len(points), len(sub.Bytes))
	}
	results := make([]runner.Result, len(points))
	for i, p := range points {
		results[i] = runner.Result{Key: p.Key, Cached: sub.Cached[i]}
		if sub.Errs[i] != "" {
			results[i].Err = fmt.Errorf("fabric: point %s: %s", p.Key, sub.Errs[i])
			continue
		}
		v, err := runner.DecodeEntry(sub.Bytes[i], p.New)
		if err != nil {
			return nil, fmt.Errorf("fabric: decode result of %s: %w", p.Key, err)
		}
		results[i].Value = v
	}
	return results, nil
}

// ctxErr prefers the context's error over a transport error it caused.
func ctxErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}
