#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go build cache, the binary and the
# temp files go to .bench_build/ at its root, traces and database directories
# to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local CGO_ENABLED=0
go build -C "$here" -o "$build/tracbench" .
exec "$build/tracbench" -out "$here/out" "$@"
