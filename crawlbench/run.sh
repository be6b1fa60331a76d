#!/usr/bin/env bash
# Builds the crawl benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#   bash crawlbench/run.sh --workload link-heavy --seed 1 --seconds 30 --trace 0
#   bash crawlbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
# Every build and run artifact stays inside the checkout: the Go build
# cache, module cache and binary go to .bench_build/, spans and per-run
# results to .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" \
	GOMODCACHE="${build}/gopath/pkg/mod" GOTMPDIR="${build}/tmp" \
	XDG_CONFIG_HOME="${build}/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
# The benchmark module imports the crawler from the enclosing module
# (replace focus => ../); without that source tree the build fails here
# and the script exits non-zero without printing a result.
(cd "${root}/crawlbench" && go build -o "${build}/crawlbench" .)
cd "${root}"
exec "${build}/crawlbench" "$@"
