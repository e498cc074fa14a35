#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it.
#
# Usage, from the repository root:
#
#   bash bench/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh        # every workload, plain then traced
#
# The last line of standard output is the run's JSON result; progress
# and a readable summary go to standard error. Everything the build and
# the run write stays under .bench_build/ in the repository root: the Go
# build cache, the binary, the daemon's store, and the trace files
# unless --out names another directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root: go.mod or bench/go.mod is missing" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temp files and telemetry counters (kept under
# the user config dir) all go under .bench_build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/balsabench" .)
exec "$build/balsabench" "$@"
