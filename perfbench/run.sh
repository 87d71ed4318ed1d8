#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload flow_small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The source revision: the git commit, or outside a git checkout a digest
# of the Go sources the benchmark is built from.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --root "$root" --out "$build/perfbench" --commit "$commit" "$@"
