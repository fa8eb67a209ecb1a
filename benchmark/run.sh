#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program from
# this checkout and runs it with the driver's arguments. Everything the Go
# toolchain writes (build cache, temp files, telemetry) is kept under
# .bench_build/ so a run reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go build -C "$root/benchmark" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
