#!/usr/bin/env bash
# Crash-recovery smoke test of the rmccd checkpoint stack (CI:
# recovery-smoke):
#
#   1. build rmccd + rmcc-loadgen,
#   2. boot the daemon with -snapshot-dir and a fast periodic checkpoint
#      interval,
#   3. drive 4 sessions and SIGKILL the daemon mid-replay from inside the
#      load generator (-crash-after/-crash-pid) — an ungraceful death with
#      whatever checkpoints the periodic cycle managed to cut — and require
#      its mapped flight file to hold an engine-step span of a loadgen
#      trace: the replay that was in flight,
#   4. sabotage the checkpoint dir: truncate one session's file mid-state
#      (meta survives -> fresh-session fallback) and drop in a garbage
#      file (no meta -> skipped),
#   5. restart the daemon over the same dir and require the sessions back,
#      and the dead daemon's flight file kept as flight.rec.prev,
#   6. top every recovered session up to the full access target with
#      rmcc-loadgen -resume -check: the final engine stats must be
#      bit-identical to an uninterrupted direct simulation — the restored
#      state is exact, not approximate,
#   7. assert the daemon logged the recovery (including the typed-error
#      fallback for the sabotaged file), then SIGTERM and require a clean
#      drain that cuts final checkpoints.
#
# Usage: scripts/recovery_smoke.sh  [sessions] [accesses]
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/lib.sh
. scripts/lib.sh

sessions="${1:-4}"
accesses="${2:-200000}"
crash_after=$((sessions * accesses / 8))
workdir="$(mktemp -d)"
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "recovery-smoke: building rmccd, rmcc-loadgen, rmcc-top" >&2
go build -o "$workdir/rmccd" ./cmd/rmccd
go build -o "$workdir/rmcc-loadgen" ./cmd/rmcc-loadgen
go build -o "$workdir/rmcc-top" ./cmd/rmcc-top

snapdir="$workdir/snapshots"

start_daemon() {
    "$workdir/rmccd" -addr 127.0.0.1:0 -port-file "$workdir/addr" -drain 10s \
        -snapshot-dir "$snapdir" -snapshot-every 150ms \
        -log-level info -log-format json \
        2>> "$1" &
    daemon_pid=$!
    wait_file "$workdir/addr"
    addr="$(cat "$workdir/addr")"
    wait_ready "$addr"
}

: > "$workdir/addr"
start_daemon "$workdir/rmccd1.log"
echo "recovery-smoke: rmccd (pid $daemon_pid) on $addr, snapshots in $snapdir" >&2

echo "recovery-smoke: $sessions sessions x $accesses accesses, SIGKILL after $crash_after aggregate" >&2
"$workdir/rmcc-loadgen" -addr "$addr" -sessions "$sessions" \
    -workload canneal -size test -accesses "$accesses" -keep \
    -trace-ids-out "$workdir/traces.txt" \
    -crash-after "$crash_after" -crash-pid "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

snaps=$(count_files "$snapdir"/*.snap)
echo "recovery-smoke: daemon killed; $snaps checkpoint files survived" >&2
if [ "$snaps" -lt 1 ]; then
    echo "recovery-smoke: no checkpoints were cut before the crash" >&2
    cat "$workdir/rmccd1.log" >&2
    exit 1
fi

# flight_holds FILE [SPAN]: FILE decodes with rmcc-top -flight and holds
# a span (named SPAN, when given) of a distributed trace the load
# generator minted.
flight_holds() {
    "$workdir/rmcc-top" -flight "$1" > "$workdir/flight.txt" \
        || { echo "recovery-smoke: flight dump $1 unreadable" >&2; return 1; }
    grep -q '^flight dump — node ' "$workdir/flight.txt" \
        || { echo "recovery-smoke: flight render of $1 missing header" >&2; head "$workdir/flight.txt" >&2; return 1; }
    while read -r _ trace; do
        grep -q "trace=$trace  ${2:-}" "$workdir/flight.txt" && return 0
    done < "$workdir/traces.txt"
    echo "recovery-smoke: $1 holds no ${2:-} span of any loadgen trace" >&2
    head -20 "$workdir/flight.txt" >&2
    return 1
}

# The flight ring is mapped onto flight.rec, so the SIGKILL'd daemon's
# file holds every record it wrote, including the engine-step spans of
# the replays it was running.
flightrec="$snapdir/flight.rec"
if [ ! -s "$flightrec" ]; then
    echo "recovery-smoke: no flight dump at $flightrec after SIGKILL" >&2
    exit 1
fi
flight_holds "$flightrec" engine-step || exit 1
echo "recovery-smoke: flight dump readable, in-flight engine-step spans present" >&2

# Sabotage: truncate one checkpoint's state (its meta section survives, so
# recovery must fall back to a fresh session under the same ID) and plant
# pure garbage (no meta: recovery must skip it, not die).
for f in "$snapdir"/*.snap; do victim="$f"; break; done
size=$(wc -c < "$victim")
truncate -s $((size - 64)) "$victim"
echo "not a snapshot" > "$snapdir/s-deadbeef.snap"
echo "recovery-smoke: truncated $(basename "$victim") and planted garbage checkpoint" >&2

: > "$workdir/addr"
start_daemon "$workdir/rmccd2.log"
echo "recovery-smoke: restarted rmccd (pid $daemon_pid) on $addr" >&2

recovered=$(curl -fsS "http://$addr/v1/sessions" | grep -c '"id"' || true)
if [ "$recovered" -ne "$sessions" ]; then
    echo "recovery-smoke: recovered $recovered sessions, want $sessions" >&2
    cat "$workdir/rmccd2.log" >&2
    exit 1
fi

# The restart maps a fresh flight.rec; the crashed run's postmortem must
# survive it as flight.rec.prev.
flight_holds "$flightrec.prev" || exit 1
echo "recovery-smoke: crashed run's flight dump kept as flight.rec.prev" >&2

echo "recovery-smoke: resuming all $recovered sessions to $accesses accesses with -check" >&2
"$workdir/rmcc-loadgen" -addr "$addr" -resume -keep \
    -workload canneal -size test -accesses "$accesses" -check

grep -q '"msg":"session recovered"' "$workdir/rmccd2.log" \
    || { echo "recovery-smoke: daemon log missing recovery lines" >&2; cat "$workdir/rmccd2.log" >&2; exit 1; }
grep -q 'recovered fresh session' "$workdir/rmccd2.log" \
    || { echo "recovery-smoke: daemon log missing fresh-session fallback for truncated checkpoint" >&2; cat "$workdir/rmccd2.log" >&2; exit 1; }
grep -q 'checkpoint unreadable, skipping' "$workdir/rmccd2.log" \
    || { echo "recovery-smoke: daemon log missing skip line for garbage checkpoint" >&2; cat "$workdir/rmccd2.log" >&2; exit 1; }
grep -q 'snapshot corrupt' "$workdir/rmccd2.log" \
    || { echo "recovery-smoke: daemon log missing typed snapshot error" >&2; cat "$workdir/rmccd2.log" >&2; exit 1; }

echo "recovery-smoke: SIGTERM -> expecting clean drain with final checkpoints" >&2
kill -TERM "$daemon_pid"
status=0
wait "$daemon_pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "recovery-smoke: rmccd exited $status (want 0)" >&2
    cat "$workdir/rmccd2.log" >&2
    exit 1
fi
grep -q '"msg":"final checkpoint"' "$workdir/rmccd2.log" \
    || { echo "recovery-smoke: daemon log missing final-checkpoint line" >&2; cat "$workdir/rmccd2.log" >&2; exit 1; }

final=0
for f in "$snapdir"/*.snap; do
    case "$f" in *deadbeef*) ;; *) [ -e "$f" ] && final=$((final + 1)) ;; esac
done
if [ "$final" -ne "$sessions" ]; then
    echo "recovery-smoke: $final final checkpoints on disk, want $sessions" >&2
    exit 1
fi

echo "recovery-smoke: PASS" >&2
