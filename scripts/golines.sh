#!/usr/bin/env bash
# Print the Go line counts every CHANGES.md entry reports: the lines of all
# tracked *.go files, split into non-test and _test.go files. Given a
# revision, also print that revision's counts and the delta from it to the
# working tree.
#
# Usage:
#   scripts/golines.sh          # the working tree's tracked files
#   scripts/golines.sh HEAD~1   # ... and the delta from HEAD~1
set -euo pipefail

cd "$(dirname "$0")/.."

# count [REV]: print "<non-test> <test>" for REV, or for the working tree.
count() {
    # git grep -c '' prints path:lines per file (REV:path:lines for a
    # revision); empty files print nothing, which is their count.
    git grep -c '' "$@" -- '*.go' | awk -F: '
        { n = $NF; if ($(NF-1) ~ /_test\.go$/) test += n; else code += n }
        END { printf "%d %d\n", code, test }'
}

read -r code test < <(count)
printf 'non-test %d, test %d\n' "$code" "$test"
if [ $# -gt 0 ]; then
    read -r code0 test0 < <(count "$1")
    printf '%s: non-test %d, test %d\n' "$1" "$code0" "$test0"
    printf 'delta: non-test %+d, test %+d\n' "$((code - code0))" "$((test - test0))"
fi
