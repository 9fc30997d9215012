#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload spec-mem --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and the
# benchmark's temporary files all live under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
