#!/usr/bin/env bash
# Builds caftbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash caftbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" ]]; then
	echo "caftbench: $root is not a caft checkout (no go.mod or internal/service)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/caftbench" && go build -o "$build/caftbench" .)
cd "$root"
exec "$build/caftbench" --out "$build" "$@"
