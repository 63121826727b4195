package main

import (
	"fmt"

	"iobehind/internal/runner"
)

// cacheStatsLine renders the post-sweep cache-effectiveness summary
// printed to stderr after every local sweep run with -cache. The label
// is the -cache directory. The format is pinned by
// TestCacheStatsLineFormat so scripts can parse it.
func cacheStatsLine(label string, st runner.CacheStats) string {
	return fmt.Sprintf("iosweep: cache %s: %d hits, %d misses, %d writes, %d errors",
		label, st.Hits, st.Misses, st.Writes, st.Errors)
}
