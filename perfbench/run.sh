#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload if-serial --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced run's spans all stay under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
