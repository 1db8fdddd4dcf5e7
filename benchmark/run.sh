#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, temporary files, telemetry
# counters) is kept under .bench_build/ in the checkout, and the working
# directory stays the checkout root so relative paths (BENCHMARK.json,
# benchmark/out/) resolve the same way for the driver and for a person.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
bin="$build/leime-benchmark"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		GOWORK=off go build -o "$bin" .
)
exec "$bin" "$@"
