#!/usr/bin/env bash
# Builds the benchmark once per checkout and runs it; every file it writes
# (binary, Go build cache, traces) stays inside the checkout.
#
#   bash benchmark/run.sh --workload warm-read --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. In a directory without the repository's
# sources the build fails and the script exits non-zero without a result.
set -euo pipefail

mkdir -p .bench_build
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
