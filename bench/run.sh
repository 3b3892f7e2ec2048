#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g. from the repository root:
#   bash bench/run.sh --workload seqread --seed 1 --seconds 20 --trace 0
# The build cache, the binary, the go command's own files (telemetry
# counters under XDG_CONFIG_HOME) and every temporary file stay under
# .bench_build/ at the repository root; nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
