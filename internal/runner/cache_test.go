package runner_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"iobehind/internal/runner"
)

// TestOpenCacheSweepsStaleTempFiles plants the orphan a crash between
// os.CreateTemp and rename leaves behind (the in-process cleanup in Put
// never runs for a killed worker) and asserts OpenCache removes it while
// leaving real entries alone.
func TestOpenCacheSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.gob.tmp-123456")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, "deadbeef.gob")
	if err := os.WriteFile(entry, []byte("entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := runner.OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived OpenCache: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Errorf("real entry removed by OpenCache: %v", err)
	}
}

// TestCacheBytesRoundTrip pins the raw-entry surface the fabric
// coordinator stores and serves results through: PutBytes/GetBytes move
// entry bytes untouched, and the bytes interoperate with the typed Get
// path.
func TestCacheBytesRoundTrip(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ N int }
	data, err := runner.EncodeEntry(&payload{N: 42})
	if err != nil {
		t.Fatal(err)
	}
	key, err := runner.CacheKey(runner.Point{Key: "p", Config: struct{ A int }{1}})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := cache.GetBytes(key); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	if !cache.PutBytes(key, data) {
		t.Fatal("PutBytes failed")
	}
	got, ok := cache.GetBytes(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("GetBytes = (%d bytes, %v), want the stored %d bytes", len(got), ok, len(data))
	}
	v, ok := cache.Get(key, func() any { return new(payload) })
	if !ok || v.(*payload).N != 42 {
		t.Fatalf("typed Get over raw bytes = (%v, %v), want &{42}", v, ok)
	}

	st := cache.Stats()
	if st.Writes != 1 || st.Hits != 2 || st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 write, 2 hits, 1 miss, 0 errors", st)
	}
}

// TestValidCacheKey pins the shape guard the fabric coordinator applies
// to submitted cache keys, keeping entry paths inside the cache
// directory.
func TestValidCacheKey(t *testing.T) {
	key, err := runner.CacheKey(runner.Point{Key: "p", Config: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !runner.ValidCacheKey(key) {
		t.Errorf("real cache key %q rejected", key)
	}
	for _, bad := range []string{
		"", "short", key[:63], key + "0",
		"../../../../etc/passwd0000000000000000000000000000000000000000000",
		"ABCDEF0123456789abcdef0123456789abcdef0123456789abcdef0123456789"[:64],
	} {
		if runner.ValidCacheKey(bad) {
			t.Errorf("ValidCacheKey(%q) = true, want false", bad)
		}
	}
}

// TestEncodeEntryDeterministic asserts entry bytes are identical across
// repeated encodes of the same value — the property content-addressed
// result sharing and duplicate-completion comparison rest on.
func TestEncodeEntryDeterministic(t *testing.T) {
	type inner struct{ Xs []float64 }
	type payload struct {
		N  int
		S  string
		In inner
	}
	v := &payload{N: 7, S: "x", In: inner{Xs: []float64{1.5, 2.5, 3.5}}}
	first, err := runner.EncodeEntry(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := runner.EncodeEntry(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}
