#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from the checkout it is
# run in and hands it the driver's arguments. Everything the go command writes
# — build cache, temporary files, module cache (unused: the module has no
# dependencies), its configuration, the binaries — goes under .bench_build in
# that checkout, so a run reads and writes nothing outside it. The benchmark
# builds the real binaries with the same settings, which it inherits.
#
# Go's telemetry is switched off in that configuration directory before the
# first go command runs. In the default "local" mode the go command, on finding
# a telemetry directory without a fresh upload token (every new checkout),
# starts a detached copy of itself that outlives the command, also when the
# command fails for want of a go.mod; a run must leave no process behind.
set -euo pipefail
root=$PWD/.bench_build
mkdir -p "$root/gocache" "$root/gotmp" "$root/bin" "$root/config/go/telemetry"
echo off >"$root/config/go/telemetry/mode"
export GOCACHE=$root/gocache GOTMPDIR=$root/gotmp GOPATH=$root/gopath XDG_CONFIG_HOME=$root/config GOTOOLCHAIN=local
go build -o "$root/bin/benchmark" ./benchmark
exec "$root/bin/benchmark" "$@"
