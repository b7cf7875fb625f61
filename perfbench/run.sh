#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload vt-target --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, temporary files and the benchmark's result stores.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/perfbench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -scratch "$out/perfbench/runs" "$@"
