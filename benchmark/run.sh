#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the
# driver's arguments. Everything the build writes (binaries, the Go build
# cache, generated graphs) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bin/pasgal-benchmark" .
exec "$build/bin/pasgal-benchmark" "$@"
