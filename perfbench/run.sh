#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it is run in
# and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload uniform-rw --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build cache, the binary and
# the WAL directories of durable workloads all live under .bench_build, so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/home" "$out/tmp" "$out/work"

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --workdir "$out/work" "$@"
