#!/usr/bin/env bash
# Run the slot-path micro-benchmarks and (re)generate or check the
# committed baseline.
#
#   scripts/bench.sh              print bench text to stdout
#   scripts/bench.sh baseline     rewrite BENCH_baseline.json from a fresh run
#   scripts/bench.sh check        compare a fresh run against BENCH_baseline.json
#                                 (fails on >10% regression of ns/op or any
#                                 custom ns/* sub-metric, or any allocs/op
#                                 increase)
#
# The benchmark set is the per-slot hot path: channel fading step, TBS
# lookup (direct and memoized), the full carrier scheduler step, the
# multi-UE population curve (Cell.Step's SoA engine at 4/16/64/256 UEs,
# reporting ns/UE-slot, plus episodes/ues=64 and episodes/ues=256 with
# the mid-band operators' degradation-episode process on every UE
# channel, the traffic the cell64 end-to-end workload steps), the
# aggregated link step, the columnar
# trace pipeline (block encode on the write side, projected block
# decode on the scan side, reporting ns/record), and one Quick-scale
# scenario pack end to end (the scenario-runner smoke). Use -count via
# BENCH_COUNT (default 5) — best-of-N repeated runs is what makes the
# 10% gate usable on noisy machines.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-5}"
FILTER='BenchmarkChannelStep|BenchmarkTBS$|BenchmarkTBSCached|BenchmarkCarrierStep|BenchmarkCellMultiUE|BenchmarkLinkStep|BenchmarkBlockScan|BenchmarkBlockWrite|BenchmarkScenarioCampaign'
PKGS="./internal/channel ./internal/phy ./internal/gnb ./internal/xcol ./internal/scenario ."

run_bench() {
    # -benchtime keeps a 5x run under ~2 minutes while giving stable numbers.
    go test -run '^$' -bench "$FILTER" -benchmem -count "$COUNT" \
        -benchtime "${BENCH_TIME:-0.5s}" $PKGS
}

case "${1:-run}" in
run)
    run_bench
    ;;
baseline)
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    run_bench | tee "$tmp"
    go run ./cmd/benchgate wrap -o BENCH_baseline.json "$tmp"
    echo "wrote BENCH_baseline.json"
    ;;
check)
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    run_bench | tee "$tmp"
    go run ./cmd/benchgate compare -max-regress "${MAX_REGRESS:-0.10}" BENCH_baseline.json "$tmp"
    ;;
*)
    echo "usage: scripts/bench.sh [run|baseline|check]" >&2
    exit 2
    ;;
esac
