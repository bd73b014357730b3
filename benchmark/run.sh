#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping the Go build
# cache, temporary files and the binary inside the checkout. Run from the
# repository root; arguments pass through to the benchmark.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/tcplp-benchmark" ./benchmark
# Same runtime setting the benchmark gives its own child processes
# (steadyGODEBUG in report.go): freed heap is handed back with MADV_FREE,
# so repetitions do not re-fault it.
GODEBUG=madvdontneed=0 exec "$build/tcplp-benchmark" "$@"
