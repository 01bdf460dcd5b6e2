#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root): bash bench/run.sh [bench flags...]
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/run"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOENV=off
export CGO_ENABLED=0
export BENCH_ROOT="$root"

# bench/ is its own module (bench/go.mod) that replaces "repro" with the
# parent directory; without the parent sources this build fails and the
# script exits non-zero before printing any result.
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
