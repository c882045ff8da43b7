#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go's caches and module directory included) and runs it with the arguments
# given. Run from the repository root:
#   bash benchmark/run.sh --workload cofactor-stream ...
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/fivm-benchmark" .
exec "$build/fivm-benchmark" "$@"
