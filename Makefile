# Standard entry points. Everything is pure Go (stdlib only), so the
# toolchain is the only dependency.

GO ?= go

# Hot-path benchmark settings shared by bench, bench-json and
# bench-check: the DES/PFS kernels, adio's throttled sub-request chain,
# the ingest edge (the binary frame codec in tmio and the gateway's two
# protocol read loops), the incremental sweep engine in region, and the
# gateway query path. Fixed -benchtime with -count repetitions replaces
# the old noisy -benchtime=1x: iobenchdiff collapses the repetitions to
# the per-metric minimum, so one slow run cannot fake a regression.
BENCH_PKGS      = ./internal/des ./internal/pfs ./internal/adio ./internal/tmio ./internal/region ./internal/gateway
BENCH_TIME     ?= 200ms
BENCH_COUNT    ?= 5
# The allocs/op comparison is the strict, deterministic half of the
# bench gate: single-threaded benchmarks allocate identically on every
# run, so any growth there is a real regression. ns/op is wall-clock
# and on a small shared-host VM it swings tens of percent with CPU
# steal, so its threshold is a coarse backstop against order-of-
# magnitude regressions (an O(1) query path degrading to a linear scan
# shows up as 10-100x, far past any steal noise), not a precision
# gate. The committed baseline is an envelope — the elementwise max
# over several runs — not a single lucky capture.
NS_THRESHOLD   ?= 0.50
# Relative allocs/op tolerance for the concurrent benchmarks
# (pfs.BenchmarkConcurrentFlows and friends) whose allocation counts
# depend on scheduler interleaving and flap a few percent run to run.
# floor(old*slack) means benchmarks pinned at 0 allocs/op stay exact.
ALLOCS_SLACK   ?= 0.05
# -p 1 serializes the package test binaries: by default go test runs up
# to GOMAXPROCS packages concurrently, which lets one package's
# benchmark loop steal cycles from another's and shows up as tens of
# percent of pure noise in ns/op — more than the regression threshold.
BENCH_FLAGS     = -run xxx -bench=. -benchmem -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -p 1

.PHONY: all build vet fmt-check lint lint-self test race fuzz-smoke bench bench-json bench-check perfbench-check sweep examples ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when gofmt would rewrite any tracked Go file. Files under testdata/
# directories are exempt: iolint's fixtures keep their own layout.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# iolint enforces the determinism and cache-key invariants the sweep
# cache and online/offline equality rest on. It is a whole-program
# analysis: a module-wide call graph marks everything reachable from the
# simulation packages, and the taint rules (walltime, globalrand,
# maporder, goroutine) follow those chains into any non-exempt package;
# errdrop, cachekey, and floateq police their own scopes. See
# docs/ARCHITECTURE.md ("Determinism & cache-key invariants"). The ./...
# pattern keeps every command — iobenchdiff included — on the analysis
# and build surface. iolint prints its timing to stderr after every run;
# the whole-module analysis is budgeted to stay under 10 seconds — treat
# growth past that as a regression in the loader or graph builder.
lint:
	$(GO) run ./cmd/iolint ./...

# The analyzer analyzes itself (and its command): internal/lint and
# cmd/iolint hold no simulation code, but the errdrop/cachekey scopes
# and the suppression parser still apply, and a clean self-run is a
# cheap end-to-end smoke of the loader on a package with heavy go/types
# use.
lint-self:
	$(GO) run ./cmd/iolint ./internal/lint ./cmd/iolint

test:
	$(GO) test ./...

# The race-detector sweep: real Fig. 1 + Fig. 5 experiment points run
# concurrently through the worker pool (internal/runner/sweep_race_test.go),
# asserting byte-identical rendered output vs. the serial path, the
# telemetry gateway's concurrent ingest/query/shutdown paths, and the
# TCPSink's reconnect/drop paths (internal/tmio stream tests). The
# simulation kernel (des, pfs) rides along so the AllocsPerRun guards
# and the event-pool recycling hold under the race detector too, and
# internal/trace exercises the emit → replay round trip (including the
# 4-rank replay) under the detector. internal/fabric runs its whole
# coordinator/worker suite here — lease expiry re-dispatch, duplicate
# completions, kill/restart resume, and the distributed-vs-serial
# integration test all race real goroutines over real sockets. The DES
# passes control directly from one process goroutine to the next, so the
# packages whose processes hand off to each other all the time — mpi
# ranks, mpiio, adio (whose event-driven agents run on the goroutine of
# whichever process holds control), the workloads, and the cluster's
# jobs and its event-driven contention monitor — run under the detector
# too; the happens-before edges of each handoff must cover every engine
# access.
race:
	$(GO) test -race ./internal/runner/... ./internal/gateway/... ./internal/tmio/... ./internal/faults/... ./internal/des/... ./internal/pfs/... ./internal/region/... ./internal/trace/... ./internal/fabric/... ./internal/mpi/... ./internal/mpiio/... ./internal/adio/... ./internal/workloads/... ./internal/cluster/...

# Run every fuzz target past its seed corpus for FUZZ_TIME each. go test
# fuzzes one target per invocation, so the targets are found by name in
# the tracked test files. Among them are the two differential checks
# against O(n) or process-based references (pfs's channel, adio's
# agent); a failing input lands in the package's testdata/fuzz and runs
# with the seed corpus from then on.
FUZZ_TIME ?= 5s
fuzz-smoke:
	@for f in $$(git ls-files '*_test.go' | xargs grep -l '^func Fuzz'); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "$(GO) test ./$$(dirname $$f) -run xxx -fuzz ^$$t\$$ -fuzztime $(FUZZ_TIME)"; \
			$(GO) test ./$$(dirname $$f) -run xxx -fuzz "^$$t\$$" -fuzztime $(FUZZ_TIME) || exit 1; \
		done; \
	done

# Run every example under examples/ end to end. go build ./... only
# compiles them; this fails when one exits non-zero, or when one prints
# anything but its recorded examples/<name>/testdata/stdout.txt (all nine
# have one; examples/streaming binds ephemeral ports but does not print
# them). After a deliberate change to an example's output, re-record its
# file with `go run ./examples/<name> > examples/<name>/testdata/stdout.txt`
# and review the diff. examples/burstbuffer is the only caller of a
# burst-buffer drain.
examples:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT; \
	for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > "$$tmp" || exit 1; \
		if [ -f "$${d}testdata/stdout.txt" ]; then \
			diff -u "$${d}testdata/stdout.txt" "$$tmp" || exit 1; \
		fi; \
	done

# Kernel hot-path benchmarks (des, pfs) plus the figure benchmarks with
# the paper's headline metrics and the serial-vs-parallel-vs-warm-cache
# sweep comparison. The figure benchmarks are whole-simulation runs, so
# they get a small fixed iteration count with one repetition for noise.
bench:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS)
	$(GO) test -run xxx -bench='Fig|BenchmarkSweep' -benchmem -benchtime=2x -count=2 .

# Snapshot the kernel benchmarks into BENCH_<git-short-sha>.json via
# cmd/iobenchdiff (schema documented there and in docs/ARCHITECTURE.md).
bench-json:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) \
		| $(GO) run ./cmd/iobenchdiff parse -label "$$(git rev-parse --short HEAD)" -o "BENCH_$$(git rev-parse --short HEAD).json"

# Fail on a >$(NS_THRESHOLD) ns/op or any allocs/op regression against
# the committed pre-optimization baseline. -fail-missing also fails when
# a benchmark guarded by the baseline disappears from the run, so
# coverage cannot be dropped by deleting the bench; retiring one
# deliberately means regenerating BENCH_baseline.json.
bench-check:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) \
		| $(GO) run ./cmd/iobenchdiff parse -label check -o BENCH_check.json
	$(GO) run ./cmd/iobenchdiff diff -ns-threshold $(NS_THRESHOLD) -allocs-slack $(ALLOCS_SLACK) -fail-missing BENCH_baseline.json BENCH_check.json

# perfbench/ is its own Go module (the repository benchmark), so the
# root ./... patterns never compile it. Vet and test it here so removing
# an API it uses fails CI instead of the benchmark run.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Regenerate all figures as one parallel sweep with a warm disk cache.
sweep:
	$(GO) run ./cmd/iosweep -figs all -scale quick -j 0 -cache .iosweep-cache

ci: vet fmt-check build lint lint-self test race fuzz-smoke bench-check perfbench-check examples

clean:
	rm -rf .iosweep-cache
	rm -f BENCH_check.json
