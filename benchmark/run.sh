#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Every build and
# run artifact (Go build cache, binary, scratch cache directories, span
# dumps) stays under .bench_build/ in the directory it is started from,
# which must be the repository root.
#
#   bash benchmark/run.sh --workload figures-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
# The module needs nothing beyond the repository itself: never fetch.
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

(cd "$root/benchmark" && go build -o "$out/soebenchmark" .)
exec "$out/soebenchmark" -out "$out" "$@"
