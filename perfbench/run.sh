#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload study-cold --seed 1 --seconds 16 --trace 0
# Every build artifact and scratch file stays under .bench_build/ at the
# checkout root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
cd "$here"
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
