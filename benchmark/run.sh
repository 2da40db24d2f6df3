#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh [-workload npb|httpd|fleet|warmfork] [-seed n]
#                         [-seconds s] [-trace 0|1] [-runs n] [-out dir]
#
# Run it from the repository root. Everything the Go toolchain would
# otherwise keep in the home directory (build cache, module cache,
# telemetry counters) goes to .bench_build/ in the current directory,
# next to the binary, so a run touches nothing outside the checkout.
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build/pprof"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
mkdir -p "$build"

# -buildvcs=false: VCS stamping would look for a repository in the
# directories above the checkout; the binary asks git itself instead.
go build -C "$root/benchmark" -buildvcs=false -o "$build/vscale-bench" .
exec "$build/vscale-bench" "$@"
