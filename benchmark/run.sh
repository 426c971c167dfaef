#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (binary and Go build cache under .bench_build/, nothing outside
# the checkout is written) and runs it with the caller's arguments.
#
#   bash benchmark/run.sh --workload wide-fleet --seed 3 --seconds 15 --trace 0
#   bash benchmark/run.sh --seed 1            # whole suite, tables + benchmark/out/result.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# The benchmark is its own module that replaces the repository's module with
# the parent directory; without the repository around it there is nothing to
# measure.
if [[ ! -f "$root/go.mod" ]]; then
	echo "benchmark: $root holds no go.mod: run from a checkout of the repository" >&2
	exit 3
fi

mkdir -p "$build"
# Everything the go command writes stays under .bench_build/: the build
# cache, the (empty) module cache, and its telemetry counters, which follow
# the user config directory.
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
(cd "$here" && go build -o "$build/fchain-benchmark" .)
exec "$build/fchain-benchmark" -out "$here/out" "$@"
