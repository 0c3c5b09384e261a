#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload olap-report --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temp files, telemetry) stays under .bench_build/perfbench,
# and the toolchain never downloads anything.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
