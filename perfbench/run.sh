#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload small-open --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary live under .bench_build/ at the checkout
# root, so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local
go build -C "$here" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
