#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload tall --seed 1 --seconds 12 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all stay
# under .bench_build in the checkout. The perfbench module resolves the
# library as ../ (a replace directive), so outside a checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOSUMDB=off
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
