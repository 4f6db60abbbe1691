#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything it writes (Go build cache and temporary files, the go
# command's own config and counters, the binary, persist's store, span
# files) lands under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its env file and counters there
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$build/mmt-benchmark" .
exec "$build/mmt-benchmark" "$@" # its scratch directory defaults to .bench_build/work
