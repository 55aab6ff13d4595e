#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash bench/run.sh --workload plan-bound --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write lands under .bench_build/ in that root (the build cache,
# toolchain telemetry, the binary, shard files and spans), so nothing outside
# the checkout is touched. The build fails, and the script exits non-zero
# without running anything, when the rest of the repository is not there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/emlbench" .)
exec "$out/emlbench" -repo "$root" -workdir "$out/work" "$@"
