#!/usr/bin/env bash
# Driver entry point: builds the benchmark into .bench_build (the Go build
# cache, GOPATH and Go's per-user config directory too, so nothing is
# written outside the checkout) and runs it with the driver's arguments.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/drbench" .
cd "$root"
exec "$build/drbench" -scratch "$build" "$@"
