#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
