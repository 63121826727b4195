#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given flags. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/modcache \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$here" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
