#!/usr/bin/env bash
# Builds the benchmark, a Go module of its own in this directory that
# compiles the simulator from the checkout's source, and runs it with the
# arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload composite --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, span traces and the run's scratch files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
(
	cd perfbench
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/bin/perfbench" .
)
exec "$build/bin/perfbench" "$@"
