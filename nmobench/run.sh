#!/usr/bin/env bash
# Builds nmod, nmogw and the benchmark from source into .bench_build,
# then runs one benchmark workload. Run from the repository root:
#
#   bash nmobench/run.sh --workload sweep --seed 42 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, temporary fleet
# directories, span dumps) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/nmod ./cmd/nmogw >&2
(cd "$root/nmobench" && go build -o "$out/bin/nmobench" .) >&2

exec "$out/bin/nmobench" -bin "$out/bin" -work "$out/tmp" "$@"
