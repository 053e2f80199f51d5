#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload derive-deep --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare before.json after.json
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced runs' span files.
# GOPROXY=off and GOTOOLCHAIN=local keep the build offline; the module has no
# dependencies outside this repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/protoquot-bench" .)
cd "$root"
exec "$build/protoquot-bench" "$@"
