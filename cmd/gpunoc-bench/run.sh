#!/usr/bin/env bash
# Builds the gpunoc-bench harness and runs it against the tree it sits in.
#
#   bash cmd/gpunoc-bench/run.sh --workload suite-small --seed 5 --seconds 10 --trace 0
#
# Every build product and scratch file stays under .bench_build at the
# repository root (or under $CARGO_TARGET_DIR when that is set), including
# the Go build cache, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac

export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"
go build -C "$root/cmd/gpunoc-bench" -o "$build/gpunoc-bench" .
exec "$build/gpunoc-bench" -root "$root" -work "$build/gpunoc-bench.d" "$@"
