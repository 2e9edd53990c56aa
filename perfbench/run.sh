#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold-distinct --seed 1 --seconds 25 --trace 0
#
# Every build artefact, cache and temporary file goes under .bench_build/ in
# the checkout. See perfbench/main.go for the workloads and metrics.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
cd "$root/perfbench"
go build -o "$build/perfbench/perfbench" .
cd "$root"
exec "$build/perfbench/perfbench" "$@"
