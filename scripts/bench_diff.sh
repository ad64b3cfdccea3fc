#!/usr/bin/env bash
# CI perf and figure-value gate: regenerate a fresh quick perf report
# into a scratch file (never clobbering the checked-in baseline, even on
# the same calendar day) and diff it against the newest checked-in
# BENCH_<date>.json with cmd/rmcc-benchdiff. For every figure the fresh
# run produced, fails when any value differs from the baseline (series,
# row names, or any cell, compared exactly) or when it got >25% slower in
# wall-clock (figures under 1 s in both reports are listed, not timed);
# also fails on a micro-benchmark that starts allocating
# where the baseline was allocation-free. Baseline figures the run did
# not produce (a -figures subset) are skipped.
#
# Usage:
#   scripts/bench_diff.sh                        # baseline = newest BENCH_*.json
#   BASELINE=BENCH_2026-10-20.json scripts/bench_diff.sh
#   THRESHOLD=0.40 scripts/bench_diff.sh         # loosen the gate
#   FRESH=/tmp/fresh.json scripts/bench_diff.sh  # keep the fresh report
#
# Extra arguments are passed through to scripts/bench.sh (and on to
# rmcc-experiments), e.g. -figures figure13 for a faster smoke run.
set -euo pipefail

cd "$(dirname "$0")/.."

baseline="${BASELINE:-}"
if [ -z "$baseline" ]; then
    # Newest checked-in report: BENCH_<date>.json sorts lexically by date,
    # so the last glob match wins. Manifests sit beside reports and must
    # not be picked.
    for f in BENCH_*.json; do
        case "$f" in *manifest*) continue ;; esac
        [ -e "$f" ] && baseline="$f"
    done
fi
if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
    echo "bench_diff: no checked-in BENCH_<date>.json baseline found" >&2
    exit 2
fi

fresh="${FRESH:-$(mktemp /tmp/bench_fresh.XXXXXX.json)}"
manifest="${fresh%.json}.manifest.json"
threshold="${THRESHOLD:-0.25}"

echo "bench_diff: baseline $baseline, fresh $fresh, threshold $threshold" >&2
OUT="$fresh" MANIFEST="$manifest" scripts/bench.sh "$@"

go run ./cmd/rmcc-benchdiff -baseline "$baseline" -current "$fresh" -threshold "$threshold"
