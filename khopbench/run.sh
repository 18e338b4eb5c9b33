#!/usr/bin/env bash
# Builds khopbench and khopd from this checkout into .bench_build at the
# repository root, runs khopbench's unit tests (Go caches a passing
# result, so only the first run in a checkout pays for them), then runs
# khopbench with the given arguments from the root. Every file the
# build, the tests and the run write stays inside .bench_build. Example:
#
#   bash khopbench/run.sh -workload mixed_1k -seed 1 -seconds 20 -trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
  GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"

cd "$root/khopbench"
go build -o "$out/bin/khopbench" .
go build -o "$out/bin/khopd" repro/cmd/khopd
# The root module's `go test ./...` does not reach this nested module, so
# its tests gate every benchmark run instead; their output goes to
# stderr, leaving the result line last on stdout.
go test ./... >&2

cd "$root"
exec "$out/bin/khopbench" -khopd "$out/bin/khopd" -work "$out/work" "$@"
