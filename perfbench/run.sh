#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload select --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
