#!/usr/bin/env bash
# Builds the load benchmark from the checkout that contains this script
# and runs it, passing every argument through:
#
#   bash loadbench/run.sh --workload scan-resident --seed 1 --seconds 15 --trace 0
#
# Run it from the checkout root. Everything the build and the run write
# (Go build cache, the go command's telemetry counters, binary, temp and
# spill files, server data dirs) lands under .bench_build/ in that root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=

(cd "$here" && go build -o "$build/loadbench" .)
cd "$root"
exec "$build/loadbench" -dir "$build" "$@"
