#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload fleet-knn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# file the benchmark writes live under .bench_build/ in that root, so a run
# touches nothing outside the checkout. Without the repository's sources
# (only BENCHMARK.json and perfbench/ present) the build fails and so does
# this script.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" -out "$out/perfbench" "$@"
