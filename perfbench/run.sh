#!/usr/bin/env bash
# Builds qjoind and the benchmark from the checkout this is run in, then
# runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload fleet-batch --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# repository root (Go build cache included).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/qjoind" ./cmd/qjoind
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -qjoind "$out/qjoind" -root "$root" "$@"
