#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload follow --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, the cached inputs and the span files
# all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/gocache" "$work/gopath" "$work/tmp" "$work/config"

export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" "$@"
