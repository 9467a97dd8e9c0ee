#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see bench/README.md). Run it from the repository root:
#
#   bash bench/run.sh --workload grid72 --seed 42 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$out/gridbench" .
exec "$out/gridbench" "$@"
