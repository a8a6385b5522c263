#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ and
# runs it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload search-gist960 --seed 1 --seconds 12 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays inside
# .bench_build/ at the checkout root. The toolchain is pinned to the local
# one and module downloads are off: the benchmark builds offline or fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
(cd "$here" && go build -o "$out/perfbench" .)

PERFBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT PERFBENCH_OUT="$out"
cd "$root"
exec "$out/perfbench" "$@"
