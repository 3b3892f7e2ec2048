#!/usr/bin/env bash
# Regenerates every pinned artifact of the simulator into one directory.
#
#   bash testdata/golden.sh OUTDIR [SIDEDIR]
#
# The simulation is deterministic, so OUTDIR must equal the committed
# tree byte for byte: `diff -r testdata/golden OUTDIR` prints nothing.
# After a deliberate model or format change, re-record the tree with
#
#   bash testdata/golden.sh testdata/golden
#
# and the change's diff shows which rows moved.
#
# OUTDIR gets the harness's stdout (harness-quick.txt for -exp all
# -scale quick, harness-default.txt for fig6c then fig11b at -scale
# default), the faultsweep metrics and the sha256 of its Perfetto
# trace, the blamesweep blame and what-if JSON, the crashsweep,
# tracesweep, K-replay and monitorsweep CSVs, the 50-scenario fuzz
# sweep summary (ending in its sweep-hash) and the stdout of every
# example program. danausbench's stdout carries simulated results only;
# each experiment's wall-clock time goes to stderr. The crash, trace,
# monitor and fuzz runs are under the race detector. What is not pinned
# goes to SIDEDIR (a temporary directory by default): the binaries, each
# run's printed rows, the Perfetto trace itself (about 400 MB), the
# series and blame CSVs, the tracesweep baseline trace and any shrunk
# fuzz reproducers.
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: $0 OUTDIR [SIDEDIR]" >&2; exit 2; }
out=$1
side=${2:-}
if [ -z "$side" ]; then
	side=$(mktemp -d)
	trap 'rm -rf "$side"' EXIT
fi
mkdir -p "$out" "$side/bin"
rm -f "$out"/*
out=$(cd "$out" && pwd)
side=$(cd "$side" && pwd)
cd "$(dirname "$0")/.."

bin=$side/bin
go build -o "$bin/danausbench" ./cmd/danausbench
go build -race -o "$bin/danausbench-race" ./cmd/danausbench

# Every figure and table.
"$bin/danausbench" -exp all -scale quick > "$out/harness-quick.txt"
{
	"$bin/danausbench" -exp fig6c -scale default
	"$bin/danausbench" -exp fig11b -scale default
} > "$out/harness-default.txt"

# Observability exports.
"$bin/danausbench" -exp faultsweep -scale quick \
	-trace "$side/faultsweep-trace.json" -metrics "$out/faultsweep-metrics.json" |
	tee "$side/faultsweep-rows.txt"
(cd "$side" && sha256sum faultsweep-trace.json) > "$out/faultsweep-trace.json.sha256"
"$bin/danausbench" -exp faultsweep -scale quick -metrics "$side/faultsweep-series.csv" > /dev/null
"$bin/danausbench" -exp blamesweep -scale quick -blame "$out/blamesweep-blame.json" \
	-whatif nic=2x,lockcs=0.5,flusher=pinned | tee "$side/blamesweep-tables.txt"
"$bin/danausbench" -exp blamesweep -scale quick -blame "$side/blamesweep-blame.csv" > /dev/null

# Sweep families; each run's rows check its own invariants and exit
# nonzero on a violation.
"$bin/danausbench-race" -exp crashsweep -scale quick -out "$out" | tee "$side/crashsweep-rows.txt"
"$bin/danausbench-race" -exp tracesweep -scale quick -out "$side" | tee "$side/tracesweep-rows.txt"
cp "$side/tracesweep-diff.csv" "$out/"
"$bin/danausbench-race" -replay "$side/tracesweep-baseline.trace" -config K -out "$out" |
	tee -a "$side/tracesweep-rows.txt"
"$bin/danausbench-race" -exp monitorsweep -scale quick -out "$out" | tee "$side/monitorsweep-rows.txt"
"$bin/danausbench-race" -fuzz 50 -seed 1 -fuzzdir "$side/fuzz-repros" | tee "$out/fuzz-smoke.txt"

# Example programs, each in a fresh working directory.
for dir in examples/*/; do
	name=$(basename "$dir")
	go build -o "$bin/$name" "./$dir"
	mkdir -p "$side/run-$name"
	(cd "$side/run-$name" && "$bin/$name" < /dev/null) > "$out/example-$name.txt"
done
