#!/usr/bin/env bash
# Build midbench, noop and cmd/figures from this checkout, then run
# midbench with the given arguments, e.g.
#
#   bash bench/run.sh --workload campaign --seed 2024 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binaries, the
# campaign traces and the traced run's spans all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/bench"
go build -o "$out/bin/midbench" ./midbench >&2
go build -o "$out/bin/noop" ./noop >&2
go build -o "$out/bin/figures" github.com/midband5g/midband/cmd/figures >&2
cd "$root"
exec "$out/bin/midbench" "$@"
