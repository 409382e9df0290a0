#!/usr/bin/env bash
# Builds the serve and gateway binaries and the benchmark from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, the Go build cache, records,
# prepared data dirs) stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
cd "$root/perfbench"
go build -trimpath -o "$out/bin/serve" multisite/cmd/serve
go build -trimpath -o "$out/bin/gateway" multisite/cmd/gateway
go build -trimpath -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
