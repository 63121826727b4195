package fabric

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"iobehind/internal/runner"
)

// CacheHandler serves a runner.Cache over HTTP in the existing SHA-256
// content-addressed scheme, so iosweep -cache-server runs and fabric
// sweeps share hits:
//
//	GET /cache/{key}   entry bytes (404 when absent)
//	PUT /cache/{key}   store entry bytes (204)
//	GET /healthz       liveness probe
//
// Keys must be exactly the 64-hex shape runner.CacheKey produces —
// anything else is rejected before it can name a path. Writes go through
// the cache's atomic temp+rename, so concurrent PUTs of the same key are
// benign and a killed server never leaves a torn entry.
func CacheHandler(c *runner.Cache) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !runner.ValidCacheKey(key) {
			http.Error(w, "malformed cache key", http.StatusBadRequest)
			return
		}
		data, ok := c.GetBytes(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	mux.HandleFunc("PUT /cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !runner.ValidCacheKey(key) {
			http.Error(w, "malformed cache key", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, MaxFrameBytes+1))
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		if len(data) == 0 || len(data) > MaxFrameBytes {
			http.Error(w, "entry size out of range", http.StatusBadRequest)
			return
		}
		if !c.PutBytes(key, data) {
			http.Error(w, "store failed", http.StatusInsufficientStorage)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// RemoteCache is a runner.PointCache speaking to a fabric cache server.
// Every failure — connection refused, timeout, 5xx — degrades to a miss:
// a run with a flaky cache server recomputes, it never blocks or
// corrupts. Safe for concurrent use.
type RemoteCache struct {
	base   string // server URL without trailing slash
	client *http.Client

	mu    sync.Mutex
	stats runner.CacheStats
}

var _ runner.PointCache = (*RemoteCache)(nil)

// NewRemoteCache builds a client for the cache server at baseURL (e.g.
// "http://127.0.0.1:7778").
func NewRemoteCache(baseURL string) *RemoteCache {
	return &RemoteCache{
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// URL returns the server URL the cache talks to.
func (rc *RemoteCache) URL() string { return rc.base }

func (rc *RemoteCache) url(key string) string { return rc.base + "/cache/" + key }

// GetBytes fetches the raw entry for key; any failure is a miss.
func (rc *RemoteCache) GetBytes(key string) ([]byte, bool) {
	resp, err := rc.client.Get(rc.url(key))
	if err != nil {
		rc.count(func(s *runner.CacheStats) { s.Misses++; s.Errors++ })
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		rc.count(func(s *runner.CacheStats) { s.Misses++ })
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		rc.count(func(s *runner.CacheStats) { s.Misses++; s.Errors++ })
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameBytes+1))
	if err != nil || len(data) == 0 || len(data) > MaxFrameBytes {
		rc.count(func(s *runner.CacheStats) { s.Misses++; s.Errors++ })
		return nil, false
	}
	rc.count(func(s *runner.CacheStats) { s.Hits++ })
	return data, true
}

// PutBytes stores raw entry bytes, reporting success. Failures are
// absorbed into the stats.
func (rc *RemoteCache) PutBytes(key string, data []byte) bool {
	req, err := http.NewRequest(http.MethodPut, rc.url(key), bytes.NewReader(data))
	if err != nil {
		rc.count(func(s *runner.CacheStats) { s.Errors++ })
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rc.client.Do(req)
	if err != nil {
		rc.count(func(s *runner.CacheStats) { s.Errors++ })
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		rc.count(func(s *runner.CacheStats) { s.Errors++ })
		return false
	}
	rc.count(func(s *runner.CacheStats) { s.Writes++ })
	return true
}

// Get implements runner.PointCache over GetBytes.
func (rc *RemoteCache) Get(key string, alloc func() any) (any, bool) {
	data, ok := rc.GetBytes(key)
	if !ok {
		return nil, false
	}
	v, err := runner.DecodeEntry(data, alloc)
	if err != nil {
		rc.count(func(s *runner.CacheStats) { s.Errors++ })
		return nil, false
	}
	return v, true
}

// Put implements runner.PointCache over PutBytes.
func (rc *RemoteCache) Put(key string, v any) {
	data, err := runner.EncodeEntry(v)
	if err != nil {
		rc.count(func(s *runner.CacheStats) { s.Errors++ })
		return
	}
	rc.PutBytes(key, data)
}

// Stats returns a snapshot of the remote lookup counters.
func (rc *RemoteCache) Stats() runner.CacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

func (rc *RemoteCache) count(f func(*runner.CacheStats)) {
	rc.mu.Lock()
	f(&rc.stats)
	rc.mu.Unlock()
}

// TieredCache layers a local disk cache under a cache server — iosweep's
// -cache with -cache-server: probe local first, then remote (filling
// local byte-for-byte on a remote hit so the next probe stays on disk),
// and write through to both.
type TieredCache struct {
	local  *runner.Cache
	remote *RemoteCache
}

var _ runner.PointCache = (*TieredCache)(nil)

// NewTieredCache layers local under remote.
func NewTieredCache(local *runner.Cache, remote *RemoteCache) *TieredCache {
	return &TieredCache{local: local, remote: remote}
}

// Get probes local, then remote, copying a remote hit into the local
// tier byte-for-byte.
func (t *TieredCache) Get(key string, alloc func() any) (any, bool) {
	if v, ok := t.local.Get(key, alloc); ok {
		return v, true
	}
	data, ok := t.remote.GetBytes(key)
	if !ok {
		return nil, false
	}
	v, err := runner.DecodeEntry(data, alloc)
	if err != nil {
		return nil, false
	}
	t.local.PutBytes(key, data)
	return v, true
}

// Put writes through to both tiers.
func (t *TieredCache) Put(key string, v any) {
	t.local.Put(key, v)
	t.remote.Put(key, v)
}

// Stats sums both tiers' counters. Hits count wherever they landed;
// writes count once per tier written, mirroring the real I/O performed.
func (t *TieredCache) Stats() runner.CacheStats {
	l, r := t.local.Stats(), t.remote.Stats()
	return runner.CacheStats{
		Hits:   l.Hits + r.Hits,
		Misses: l.Misses + r.Misses,
		Writes: l.Writes + r.Writes,
		Errors: l.Errors + r.Errors,
	}
}
