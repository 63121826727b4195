package main

import (
	"testing"

	"iobehind/internal/runner"
)

// TestCacheStatsLineFormat pins the exact shape of the cache summary
// line: cache effectiveness must be visible (and machine-parsable)
// without a debugger.
func TestCacheStatsLineFormat(t *testing.T) {
	got := cacheStatsLine(".iosweep-cache", runner.CacheStats{Hits: 3, Misses: 2, Writes: 2, Errors: 1})
	want := "iosweep: cache .iosweep-cache: 3 hits, 2 misses, 2 writes, 1 errors"
	if got != want {
		t.Fatalf("cacheStatsLine = %q, want %q", got, want)
	}
}
