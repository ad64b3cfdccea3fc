#!/usr/bin/env bash
# End-to-end smoke test of the rmccd service stack (CI: service-smoke):
#
#   1. build rmccd + rmcc-loadgen + rmcc-top,
#   2. boot the daemon on an ephemeral port with JSON structured logging
#      and the pprof debug listener enabled,
#   3. drive 8 concurrent sessions through the built-in workload replay
#      with -check (service stats must be bit-identical to a direct
#      in-process simulation), keep the sessions, and scrape /metrics
#      (which must carry the per-stage span histograms plus the
#      loadgen-appended client latency quantiles),
#   4. render the live dashboard once with rmcc-top -once,
#   5. curl /statusz and /debug/tracez on the service address and
#      /debug/pprof/heap on the debug listener,
#   6. POST an NDJSON body to a kept session and require HTTP 415 naming
#      the RMTR content type (the refused upload must leave the session
#      untouched, which step 9's access counts check),
#   7. record an RMTR trace with rmcc-trace, upload it with -trace-file
#      -check (bit-identical to the direct run), require the daemon to have
#      read exactly the file minus its header per upload, round-trip the
#      trace through -decode/-encode (byte-identical file), and assert the
#      per-wire replay metrics appeared,
#   8. SIGTERM the daemon and require a clean graceful drain: exit 0
#      within the drain deadline, plus structured log lines carrying a
#      session field,
#   9. assert the drain cut a final checkpoint of every kept session, then
#      restart the daemon over the same snapshot dir and require all of
#      them back at their full access counts.
#
# Usage: scripts/service_smoke.sh  [sessions] [accesses]
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/lib.sh
. scripts/lib.sh

sessions="${1:-8}"
accesses="${2:-20000}"
workdir="$(mktemp -d)"
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "service-smoke: building rmccd, rmcc-loadgen, rmcc-top and rmcc-trace" >&2
go build -o "$workdir/rmccd" ./cmd/rmccd
go build -o "$workdir/rmcc-loadgen" ./cmd/rmcc-loadgen
go build -o "$workdir/rmcc-top" ./cmd/rmcc-top
go build -o "$workdir/rmcc-trace" ./cmd/rmcc-trace

# Start the daemon directly (no subshell) so `wait` can retrieve its real
# exit status later.
"$workdir/rmccd" -addr 127.0.0.1:0 -port-file "$workdir/addr" -drain 10s \
    -snapshot-dir "$workdir/snapshots" \
    -log-level info -log-format json \
    -debug-addr 127.0.0.1:0 -debug-port-file "$workdir/debug_addr" \
    2> "$workdir/rmccd.log" &
daemon_pid=$!

wait_file "$workdir/addr"
wait_file "$workdir/debug_addr"
addr="$(cat "$workdir/addr")"
debug_addr="$(cat "$workdir/debug_addr")"
wait_ready "$addr"
echo "service-smoke: rmccd (pid $daemon_pid) on $addr, debug on $debug_addr" >&2

echo "service-smoke: $sessions concurrent sessions x $accesses accesses (workload replay, -check, -keep)" >&2
"$workdir/rmcc-loadgen" -addr "$addr" -sessions "$sessions" \
    -workload canneal -size test -accesses "$accesses" \
    -check -keep -metrics-out "$workdir/metrics.txt"

echo "service-smoke: rmcc-top -once against the kept sessions" >&2
"$workdir/rmcc-top" -addr "$addr" -once > "$workdir/top.txt"
grep -q 'SESSION' "$workdir/top.txt" && grep -q 'canneal' "$workdir/top.txt" \
    || { echo "service-smoke: rmcc-top -once rendered no session table" >&2; cat "$workdir/top.txt" >&2; exit 1; }

echo "service-smoke: debug endpoints" >&2
curl -fsS "http://$addr/statusz" > "$workdir/statusz.json"
grep -q '"sessions"' "$workdir/statusz.json" && grep -q '"uptime_seconds"' "$workdir/statusz.json" \
    || { echo "service-smoke: /statusz missing fields" >&2; cat "$workdir/statusz.json" >&2; exit 1; }
curl -fsS "http://$debug_addr/debug/pprof/heap" > "$workdir/heap.pprof"
[ -s "$workdir/heap.pprof" ] \
    || { echo "service-smoke: /debug/pprof/heap returned nothing" >&2; exit 1; }
curl -fsS "http://$addr/debug/tracez?n=10" | grep -q '"slowest"' \
    || { echo "service-smoke: /debug/tracez missing spans" >&2; exit 1; }

echo "service-smoke: NDJSON replay body -> 415" >&2
sid=$(curl -fsS "http://$addr/v1/sessions" | grep -o '"id": *"s-[0-9a-f]*"' | head -1 | grep -o 's-[0-9a-f]*')
code=$(curl -sS -o "$workdir/ndjson_replay.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/x-ndjson' --data-binary '{"addr":4096}' \
    "http://$addr/v1/sessions/$sid/replay")
[ "$code" = 415 ] && grep -q 'application/x-rmcc-trace' "$workdir/ndjson_replay.json" \
    || { echo "service-smoke: NDJSON replay body got HTTP $code, want 415" >&2; cat "$workdir/ndjson_replay.json" >&2; exit 1; }

echo "service-smoke: trace upload (rmcc-trace -record -> loadgen -trace-file -check)" >&2
"$workdir/rmcc-trace" -record -workload canneal -size test \
    -n "$accesses" -seed 1 -o "$workdir/canneal.rmtr"
"$workdir/rmcc-loadgen" -addr "$addr" -sessions 2 \
    -trace-file "$workdir/canneal.rmtr" -check
# A trace file is a 13-byte header ("RMTR", version, name length,
# "canneal") plus the replay body, uploaded verbatim: the daemon must have
# read exactly the body, once per session.
body_bytes=$(( $(wc -c < "$workdir/canneal.rmtr") - 13 ))
read_bytes=$(curl -fsS "http://$addr/metrics" \
    | awk '$1 == "rmccd_replay_bytes_total{wire=\"binary\"}" { print $2 }')
[ "$read_bytes" = "$(( 2 * body_bytes ))" ] \
    || { echo "service-smoke: daemon read $read_bytes body bytes, want 2 x $body_bytes" >&2; exit 1; }

echo "service-smoke: NDJSON <-> RMTR round trip (decode -> encode -> byte-identical)" >&2
"$workdir/rmcc-trace" -decode "$workdir/canneal.rmtr" -o "$workdir/canneal.ndjson"
trace_name=$("$workdir/rmcc-trace" -info "$workdir/canneal.rmtr" | awk '/^workload/{print $2; exit}')
"$workdir/rmcc-trace" -encode "$workdir/canneal.ndjson" -label "$trace_name" \
    -o "$workdir/canneal2.rmtr"
cmp "$workdir/canneal.rmtr" "$workdir/canneal2.rmtr" \
    || { echo "service-smoke: NDJSON<->RMTR round trip not byte-identical" >&2; exit 1; }

echo "service-smoke: per-wire replay metrics" >&2
curl -fsS "http://$addr/metrics" > "$workdir/metrics_wire.txt"
grep -q 'rmccd_replay_bytes_total{wire="binary"}' "$workdir/metrics_wire.txt" \
    || { echo "service-smoke: /metrics missing binary-wire byte counter" >&2; exit 1; }
grep -q 'rmccd_replay_requests_total{wire="binary"}' "$workdir/metrics_wire.txt" \
    || { echo "service-smoke: /metrics missing binary-wire request counter" >&2; exit 1; }
# Every replay read batches (decode), stepped them (engine-step), rolled
# up its stats (rollup) and wrote its result (encode): all four stage
# histograms must have counted spans.
for stage in decode engine-step rollup encode; do
    awk -v series="rmccd_replay_stage_duration_us_count{stage=\"$stage\"}" \
        '$1 == series && $2 > 0 { found = 1 } END { exit !found }' "$workdir/metrics_wire.txt" \
        || { echo "service-smoke: /metrics has no $stage stage spans" >&2; exit 1; }
done
# Those four are the only stages, and no series reports a queue: the
# goroutine holding a session's replay lease steps its engine directly.
extra=$(grep -o 'stage="[^"]*"' "$workdir/metrics_wire.txt" | sort -u \
    | grep -v -e '"decode"' -e '"engine-step"' -e '"rollup"' -e '"encode"' || true)
[ -z "$extra" ] \
    || { echo "service-smoke: /metrics has unexpected stages: $extra" >&2; exit 1; }
if grep -E '^rmccd_[a-z_]*queue' "$workdir/metrics_wire.txt" >&2; then
    echo "service-smoke: /metrics still reports queue series" >&2
    exit 1
fi

grep -q 'rmccd_replays_total{status="ok"}' "$workdir/metrics.txt" \
    || { echo "service-smoke: /metrics missing replay counters" >&2; exit 1; }
grep -q 'rmccd_build_info' "$workdir/metrics.txt" \
    || { echo "service-smoke: /metrics missing build info" >&2; exit 1; }
grep -q 'rmccd_replay_stage_duration_us' "$workdir/metrics.txt" \
    || { echo "service-smoke: /metrics missing stage span histograms" >&2; exit 1; }
grep -q 'loadgen_replay_latency_seconds{quantile="0.99"}' "$workdir/metrics.txt" \
    || { echo "service-smoke: metrics-out missing client latency quantiles" >&2; exit 1; }

echo "service-smoke: SIGTERM -> expecting clean drain (exit 0)" >&2
kill -TERM "$daemon_pid"
status=0
wait "$daemon_pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "service-smoke: rmccd exited $status (want 0: clean graceful drain)" >&2
    cat "$workdir/rmccd.log" >&2
    exit 1
fi
grep -q 'shutdown complete' "$workdir/rmccd.log" \
    || { echo "service-smoke: daemon log missing 'shutdown complete'" >&2; cat "$workdir/rmccd.log" >&2; exit 1; }
grep -q '"session":"s-' "$workdir/rmccd.log" \
    || { echo "service-smoke: daemon log missing structured session fields" >&2; cat "$workdir/rmccd.log" >&2; exit 1; }

echo "service-smoke: drain must have checkpointed every kept session" >&2
grep -q '"msg":"final checkpoint"' "$workdir/rmccd.log" \
    || { echo "service-smoke: daemon log missing final-checkpoint line" >&2; cat "$workdir/rmccd.log" >&2; exit 1; }
snaps=$(count_files "$workdir/snapshots"/*.snap)
if [ "$snaps" -ne "$sessions" ]; then
    echo "service-smoke: $snaps checkpoint files after drain, want $sessions" >&2
    exit 1
fi

echo "service-smoke: restart over the same snapshot dir -> sessions recovered" >&2
: > "$workdir/addr"
"$workdir/rmccd" -addr 127.0.0.1:0 -port-file "$workdir/addr" -drain 10s \
    -snapshot-dir "$workdir/snapshots" \
    -log-level info -log-format json \
    2> "$workdir/rmccd2.log" &
daemon_pid=$!
wait_file "$workdir/addr"
addr="$(cat "$workdir/addr")"
wait_ready "$addr"
recovered=$(curl -fsS "http://$addr/v1/sessions" | grep -c "\"accesses\": $accesses" || true)
if [ "$recovered" -ne "$sessions" ]; then
    echo "service-smoke: $recovered recovered sessions at $accesses accesses, want $sessions" >&2
    curl -fsS "http://$addr/v1/sessions" >&2 || true
    cat "$workdir/rmccd2.log" >&2
    exit 1
fi
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "service-smoke: recovered daemon drain failed" >&2; exit 1; }

echo "service-smoke: PASS" >&2
