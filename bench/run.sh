#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source into
# the checkout's .bench_build (Go's caches included, so nothing is written
# outside the checkout) and run it from bench/ with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/sosf-bench" .
exec "$build/sosf-bench" "$@"
