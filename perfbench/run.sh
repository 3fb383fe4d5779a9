#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, the binary, the
# unix sockets and the span files all go under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), inside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build=$root/$build
mkdir -p "$build"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build" "$@"
