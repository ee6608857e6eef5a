#!/usr/bin/env bash
# Builds the layoutd benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash layoutbench/run.sh --workload hit-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build cache
# and the trace files stay under ${CARGO_TARGET_DIR:-.bench_build}. Outside a
# full checkout (no parent module next to layoutbench/) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/xdg-config"
export XDG_CACHE_HOME="$build/xdg-cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export LAYOUTBENCH_OUT="$build/layoutbench"

(cd layoutbench && go build -o "$build/layoutbench.bin" .)
exec "$build/layoutbench.bin" "$@"
