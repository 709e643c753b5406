#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the repository root; arguments go to the benchmark:
#
#   bash _dsperf/run.sh --workload power-sf0.01-p1 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the results stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/dsperf" .)
exec "$build/dsperf" --out "$build/dsperf-out" "$@"
