#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments. Every file the Go toolchain
# writes (build cache, temporaries, the binary) stays under .bench_build/.
# Run from the repository root:
#   bash perfbench/run.sh --workload read-hit --seed 1 --seconds 24 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the go command's config and telemetry counters
# in too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"
exec "$bin" -root "$root" "$@"
