#!/usr/bin/env bash
# Builds the service benchmark (mvrcbench) from source and runs it from the
# repository root; every argument is passed through to mvrcbench, e.g.
#
#   bash bench/run.sh --workload warm-service --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache (and the go tool's GOPATH and config
# directory), server logs and traces stay inside .bench_build/ at the
# repository root. Outside a full checkout (no go.mod of module repro next
# to bench/) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/mvrcbench" ./mvrcbench
exec "$out/mvrcbench" "$@"
