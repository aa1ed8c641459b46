#!/usr/bin/env bash
# Builds the simulator's binaries and the benchmark from source, then makes
# one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build and
# .bench_out in the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
# cmd/sweep builds with its default.pgo profile (-pgo=auto), as a user's
# `go build ./cmd/sweep` does.
go build -o "$build/bin/" ./cmd/sweep ./cmd/cached ./cmd/sweepd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -out "$root/.bench_out" "$@"
