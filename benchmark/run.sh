#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Everything the build and the run leave behind (Go build cache, the
# binary, Pagelog files, traces) stays under benchmark/.build/, which
# benchmark/.gitignore names, so nothing outside the checkout is read or
# written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/benchmark/.build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local

go build -o "$out/rql-benchmark" ./benchmark
exec "$out/rql-benchmark" "$@"
