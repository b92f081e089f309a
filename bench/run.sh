#!/usr/bin/env bash
# The BENCHMARK.json command: builds the harness from source into
# .bench_build/ (the only place the benchmark writes besides bench/out/)
# and runs one workload. Called from the root of a checkout:
#
#   bash bench/run.sh --workload train_sparse --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every byte the toolchain writes inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/dimboost-perfbench" .)
cd "$root"
exec "$build/dimboost-perfbench" run "$@"
