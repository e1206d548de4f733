#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash _perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
# Everything the toolchain writes (build cache, binary) stays under
# .bench_build/ in the directory this is run from.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
# The toolchain's user config (telemetry counters) goes under $out too.
(cd "$root/_perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
