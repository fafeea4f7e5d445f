#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sentinel-rich --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
