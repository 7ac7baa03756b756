#!/usr/bin/env bash
# Builds impacc-perf from source and runs it with the given flags, e.g.
#
#   bash cmd/impacc-perf/bench.sh --workload p2p-psg --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, temporary files and the
# binary stay under .bench_build/ there, and the toolchain never downloads.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C cmd/impacc-perf build -o "$out/impacc-perf" .
exec "$out/impacc-perf" "$@"
