#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
