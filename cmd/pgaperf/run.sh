#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash cmd/pgaperf/run.sh --workload onemax-islands --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the checkout root. Outside a checkout of the module
# (no go.mod) the build fails and nothing is run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/go-cache" GOPATH="${build}/go-path" GOTMPDIR="${build}/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
cd "${root}"
go build -o "${build}/pgaperf" ./cmd/pgaperf
exec "${build}/pgaperf" "$@"
