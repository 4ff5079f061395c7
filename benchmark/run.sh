#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go's caches included) stays under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$here" -o "$build/nebula-benchmark" . >&2
cd "$root"
exec "$build/nebula-benchmark" --dir "$build" "$@"
