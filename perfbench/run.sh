#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# checkout root:
#
#   bash perfbench/run.sh --workload paper-loop --seed 1 --seconds 15 --trace 0
#
# The Go toolchain's caches, the binary, scratch projects and traces all go
# under .bench_build, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
