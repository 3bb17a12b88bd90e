#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload ingest-churn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
