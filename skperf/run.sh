#!/usr/bin/env bash
# Builds the SecureKeeper benchmark from this checkout and runs it.
#
#   bash skperf/run.sh --workload sk-write --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Every build artefact, cache and data
# directory lives under .bench_build/ in the checkout; nothing is written
# elsewhere. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOENV=off

go -C "$root/skperf" build -o "$build/skperf" . >&2
exec "$build/skperf" -data "$build/data" "$@"
