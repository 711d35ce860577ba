#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash fasebench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write — Go build cache, binary, temporary files, span dumps — stays
# under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/fasebench/go.mod" ]]; then
	echo "fasebench: run from the repository root (no go.mod here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C "$root/fasebench" build -trimpath -o "$build/fasebench" .
exec "$build/fasebench" "$@"
