#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it. Everything
# the build and the run write — Go build cache, temporary files, the binary,
# WAL directories, span dumps — stays under .bench_build/ at the checkout
# root. Arguments are passed through: -workload, -seed, -seconds, -trace,
# -compare, -smoke.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/dgbench" .
cd "$root"
exec "$build/dgbench" "$@"
