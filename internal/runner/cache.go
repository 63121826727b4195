package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// cacheVersion participates in every cache key: bumping it invalidates
// all entries at once. Bump it when the meaning of cached results changes
// (e.g. a simulation-model fix that alters outputs without any config
// change).
// v2: adio accounting fixes (storm-queue time folded into the first
// segment, burst-buffered stats aligned with the direct path) changed
// report contents for unchanged configs.
// v3: metrics.Histogram switched to a deterministic (sorted-bucket) wire
// encoding so entry bytes are content-addressable; old entries encode
// the same values differently and must never be compared byte-wise.
// v4: region.Sweep's boundary sort gained a canonical (time, delta)
// tie-break so the fold is permutation-independent; coincident-boundary
// accumulation order — and thus the low bits of swept series — can
// differ from v3 entries.
// v5: pfs tracks uncapped flows by a shared served-bytes counter and a
// virtual-finish heap; finish instants can move by a nanosecond, and flows
// finishing in one instant complete in (virtual finish, start) order.
// v6: tmio.Report lost its two histograms (WindowHist, SizeHist), so
// entry bytes change for unchanged configs.
// v7: cluster.Result lost FaultWindows and Retries, so Fig. 1's entry
// bytes change for unchanged configs.
const cacheVersion = "iobehind-runner-v7"

// Cache memoizes completed sweep points on disk. Entries are gob files
// named by a SHA-256 over (cache version, point key, canonical JSON of
// the point's config), so any configuration change — strategy,
// tolerances, rank count, file-system config, workload parameters —
// produces a different key and the stale entry is simply never read
// again. Unreadable or corrupt entries count as misses and are
// recomputed and overwritten, never trusted.
//
// A Cache is safe for concurrent use by one process. Concurrent writers
// of the same key are benign: writes go to unique temp files and are
// renamed into place atomically, and every entry for a key encodes the
// same deterministic result.
type Cache struct {
	dir string

	mu     sync.Mutex
	hits   int
	misses int
	writes int
	errs   int
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits   int // results served from the cache
	Misses int // lookups that fell through to a run
	Writes int // entries stored
	Errors int // read/write/decode failures (treated as misses)
}

// OpenCache opens (creating if needed) a cache rooted at dir. Stale
// temp files left behind by a crash between os.CreateTemp and rename —
// in-process failures are cleaned up by put, a killed process's are not —
// are swept here, so cache directories do not accumulate orphans across
// worker or coordinator restarts. Removing another live writer's temp
// file is benign: its rename fails and is absorbed as a cache-write
// error, costing only a recomputation.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	return &Cache{dir: dir}, nil
}

// Stats returns a snapshot of the hit/miss/write counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Writes: c.writes, Errors: c.errs}
}

// CacheKey derives the point's cache key: a hex SHA-256 over the cache
// version, the point key, and the canonical JSON encoding of the config.
func CacheKey(p Point) (string, error) {
	cfg, err := json.Marshal(p.Config)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", cacheVersion, p.Key)
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ValidCacheKey reports whether key has the exact shape CacheKey
// produces: 64 lowercase hex characters. The fabric coordinator checks
// every submitted key with it, so no manifest point can name a path
// outside the cache directory.
func ValidCacheKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EncodeEntry serializes a point result into the cache's entry format —
// the exact bytes a *Cache stores on disk and the fabric moves over the
// wire. The bytes are deterministic for a given value as long as result
// structs hold no maps (gob writes a map in iteration order) and the
// value's types got their gob type numbers in the same order in every
// process: gob numbers a type when the process first encodes it, so the
// package defining the result types encodes one of each at init (see
// internal/experiments). That is what makes entries content-addressable
// and duplicate completions byte-comparable.
func EncodeEntry(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeEntry decodes entry bytes into a fresh value from alloc.
func DecodeEntry(data []byte, alloc func() any) (any, error) {
	into := alloc()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(into); err != nil {
		return nil, err
	}
	return into, nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".gob")
}

// GetBytes loads the raw entry bytes for key; absence or a read error is
// a miss. No decode happens here — the fabric coordinator streams the
// bytes to its submitter untouched.
func (c *Cache) GetBytes(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.count(func() { c.misses++ })
		return nil, false
	}
	c.count(func() { c.hits++ })
	return data, true
}

// PutBytes stores raw entry bytes under key, atomically (temp file +
// rename), reporting success. Failures are recorded in the stats but
// otherwise absorbed: a cache write error only costs a future
// recomputation.
func (c *Cache) PutBytes(key string, data []byte) bool {
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		c.count(func() { c.errs++ })
		return false
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), c.path(key)) != nil {
		os.Remove(tmp.Name())
		c.count(func() { c.errs++ })
		return false
	}
	c.count(func() { c.writes++ })
	return true
}

// Get loads the entry for key into a fresh value from alloc. Any failure
// (absent, unreadable, undecodable) is a miss.
func (c *Cache) Get(key string, alloc func() any) (any, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.count(func() { c.misses++ })
		return nil, false
	}
	into, err := DecodeEntry(data, alloc)
	if err != nil {
		c.count(func() { c.misses++; c.errs++ })
		return nil, false
	}
	c.count(func() { c.hits++ })
	return into, true
}

// Put stores v under key via EncodeEntry + PutBytes.
func (c *Cache) Put(key string, v any) {
	data, err := EncodeEntry(v)
	if err != nil {
		c.count(func() { c.errs++ })
		return
	}
	c.PutBytes(key, data)
}

func (c *Cache) count(f func()) {
	c.mu.Lock()
	f()
	c.mu.Unlock()
}
