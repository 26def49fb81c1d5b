#!/usr/bin/env sh
# Throughput regression gate.
#
# Compares the sims/s of a fresh `--profile` run against the committed
# baseline record and fails if it regressed more than TOLERANCE below it.
#
#   usage: ci/throughput_gate.sh [current.json] [baseline.json]
#
# Defaults compare a fresh BENCH_CI.json (produced in CI by the full
# quick-scale `lb-experiments --jobs 1 --profile` suite — the same
# binary, scale and job count as the committed record, which is the
# `--jobs 1` entry of BENCH_PR10.json, read first) against that figure.
# The tolerance is deliberately wide (15 %) because CI machines vary; the
# gate exists to catch order-of-magnitude scheduling regressions, not
# noise.
set -eu

CURRENT=${1:-BENCH_CI.json}
BASELINE=${2:-BENCH_PR10.json}
TOLERANCE=0.85

extract() {
    grep -o '"sims_per_sec": [0-9.]*' "$1" | head -1 | grep -o '[0-9.]*$'
}

cur=$(extract "$CURRENT")
base=$(extract "$BASELINE")
[ -n "$cur" ] || { echo "throughput_gate: no sims_per_sec in $CURRENT" >&2; exit 2; }
[ -n "$base" ] || { echo "throughput_gate: no sims_per_sec in $BASELINE" >&2; exit 2; }

floor=$(awk "BEGIN { printf \"%.3f\", $base * $TOLERANCE }")
echo "throughput_gate: current $cur sims/s, baseline $base sims/s, floor $floor sims/s"

awk "BEGIN { exit !($cur >= $floor) }" || {
    echo "throughput_gate: FAIL - $cur sims/s is below the $floor sims/s floor" >&2
    exit 1
}
echo "throughput_gate: OK"
