#!/usr/bin/env bash
# CI coverage gate (CI: coverage): run the full test suite with a
# cross-package coverage profile, render the HTML report (uploaded as a
# CI artifact), and fail if total statement coverage falls below the
# floor. The floor is the last measured total (79.4%, on a 2-vCPU host)
# minus 1.5 points of headroom for run-to-run variance — it ratchets up,
# not down: raise COVERAGE_MIN here as the suite grows, never lower it
# to absorb a regression.
#
# Usage:
#   scripts/coverage.sh                    # profile + HTML into ./coverage/
#   OUT=/tmp/cov scripts/coverage.sh       # write elsewhere
#   COVERAGE_MIN=80.0 scripts/coverage.sh  # tighten the floor
set -euo pipefail

cd "$(dirname "$0")/.."

out="${OUT:-coverage}"
min="${COVERAGE_MIN:-77.9}"
mkdir -p "$out"

echo "coverage: go test -coverprofile over ./... (floor $min%)" >&2
go test -count=1 -coverprofile="$out/cover.out" -coverpkg=./... ./...
go tool cover -html="$out/cover.out" -o "$out/coverage.html"

total=$(go tool cover -func="$out/cover.out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "coverage: total $total% (floor $min%), report at $out/coverage.html" >&2
awk -v t="$total" -v m="$min" 'BEGIN { exit (t + 0 >= m + 0) ? 0 : 1 }' || {
    echo "coverage: FAIL — $total% is below the $min% floor" >&2
    exit 1
}
echo "coverage: PASS" >&2
