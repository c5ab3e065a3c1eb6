#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sim-uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and cache file stays under
# .bench_build/ in that directory (or under $CARGO_TARGET_DIR when set), so
# the benchmark writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-config" "$build/go-path"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/go-config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --spans-dir "$build/spans" "$@"
