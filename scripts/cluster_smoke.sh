#!/usr/bin/env bash
# Multi-node smoke test of the rmcc-router cluster stack (CI:
# cluster-smoke):
#
#   1. build rmccd, rmcc-router, rmcc-loadgen, rmcc-top and rmcc-trace,
#   2. boot 3 rmccd nodes and one rmcc-router over them, all on
#      ephemeral ports with port-file + /statusz readiness polling,
#   3. record an RMTR trace and drive $sessions concurrent sessions
#      through the router over the binary frame wire with -check
#      (replayed engine stats must be bit-identical to a direct
#      in-process simulation) and -keep,
#   4. once every session is created and replays are flowing, drain one
#      node through POST /v1/cluster/nodes/{id}/drain: its sessions
#      migrate to their new ring owners via snapshot download/restore
#      while the load generator keeps replaying through the router,
#   5. require the load generator to finish with exit 0 and the
#      bit-identical check line: zero replay divergence across the
#      mid-run migration,
#   6. assert the drained node holds no sessions, the survivors hold all
#      of them, the router listing annotates none with the drained node,
#      and the router metrics counted the migrations with zero failures,
#   7. render the cluster dashboard once with rmcc-top -once,
#   8. SIGTERM the router and every node and require clean exits.
#
# Usage: scripts/cluster_smoke.sh  [sessions] [accesses] [replays]
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/lib.sh
. scripts/lib.sh

sessions="${1:-1000}"
accesses="${2:-2000}"
replays="${3:-3}"
workdir="$(mktemp -d)"
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "cluster-smoke: building rmccd, rmcc-router, rmcc-loadgen, rmcc-top, rmcc-trace" >&2
go build -o "$workdir/rmccd" ./cmd/rmccd
go build -o "$workdir/rmcc-router" ./cmd/rmcc-router
go build -o "$workdir/rmcc-loadgen" ./cmd/rmcc-loadgen
go build -o "$workdir/rmcc-top" ./cmd/rmcc-top
go build -o "$workdir/rmcc-trace" ./cmd/rmcc-trace

echo "cluster-smoke: booting 3 rmccd nodes" >&2
# -flight-cap sizes each process's one span store: 8 MiB holds ~65536
# spans at ~120 B per span frame, enough to keep every traced session.
nodes=()
for i in 1 2 3; do
    "$workdir/rmccd" -addr 127.0.0.1:0 -port-file "$workdir/node$i.addr" \
        -drain 10s -node-id "node$i" -flight-cap 8388608 \
        -log-level info -log-format json \
        2> "$workdir/node$i.log" &
    pids+=("$!")
done
for i in 1 2 3; do
    wait_file "$workdir/node$i.addr"
    nodes+=("$(cat "$workdir/node$i.addr")")
    wait_ready "${nodes[$((i - 1))]}"
done
echo "cluster-smoke: nodes up: ${nodes[*]}" >&2

"$workdir/rmcc-router" -addr 127.0.0.1:0 -port-file "$workdir/router.addr" \
    -nodes "$(IFS=,; echo "${nodes[*]}")" -health-every 500ms \
    -flight-cap 8388608 -log-level info -log-format json \
    2> "$workdir/router.log" &
router_pid=$!
pids+=("$router_pid")
wait_file "$workdir/router.addr"
router="$(cat "$workdir/router.addr")"
wait_ready "$router"
echo "cluster-smoke: router up on $router" >&2

"$workdir/rmcc-trace" -record -workload canneal -size test \
    -n "$accesses" -seed 1 -o "$workdir/canneal.rmtr"

echo "cluster-smoke: $sessions concurrent sessions x $replays trace replays (binary wire, -check, -keep) through the router" >&2
"$workdir/rmcc-loadgen" -addr "$router" -sessions "$sessions" \
    -trace-file "$workdir/canneal.rmtr" -wire binary -replays "$replays" \
    -trace-ids-out "$workdir/traces.txt" \
    -check -keep -timeout 15m > "$workdir/loadgen.out" 2> "$workdir/loadgen.err" &
loadgen_pid=$!

# Wait for the create barrier to clear: every session exists and replays
# are flowing. Then the drain lands mid-run by construction.
for _ in $(seq 1 600); do
    created=$(curl -fsS "http://$router/v1/sessions" 2>/dev/null | grep -c '"id"' || true)
    [ "$created" -ge "$sessions" ] && break
    if ! kill -0 "$loadgen_pid" 2>/dev/null; then
        echo "cluster-smoke: loadgen died before all sessions were created" >&2
        cat "$workdir/loadgen.err" >&2
        exit 1
    fi
    sleep 0.5
done
if [ "${created:-0}" -lt "$sessions" ]; then
    echo "cluster-smoke: only $created of $sessions sessions created in time" >&2
    exit 1
fi

victim="${nodes[2]}"
echo "cluster-smoke: draining node $victim mid-run" >&2
curl -fsS -X POST "http://$router/v1/cluster/nodes/$victim/drain" \
    > "$workdir/drain.json"
grep -q '"failed": 0' "$workdir/drain.json" \
    || { echo "cluster-smoke: drain reported failures" >&2; cat "$workdir/drain.json" >&2; exit 1; }
migrated=$(grep -o '"migrated": [0-9]*' "$workdir/drain.json" | grep -o '[0-9]*')
echo "cluster-smoke: drain finished, $migrated sessions migrated" >&2
if [ "$migrated" -lt 1 ]; then
    echo "cluster-smoke: drain migrated nothing — victim owned no sessions?" >&2
    cat "$workdir/drain.json" >&2
    exit 1
fi

echo "cluster-smoke: waiting for the load generator (zero-divergence check)" >&2
status=0
wait "$loadgen_pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "cluster-smoke: loadgen exited $status (want 0)" >&2
    tail -50 "$workdir/loadgen.err" >&2
    exit 1
fi
grep -q 'check: service stats bit-identical' "$workdir/loadgen.out" \
    || { echo "cluster-smoke: loadgen output missing the bit-identical check line" >&2; tail -20 "$workdir/loadgen.out" >&2; exit 1; }

echo "cluster-smoke: drained node must be empty, survivors hold every session" >&2
on_victim=$(curl -fsS "http://$victim/v1/sessions" | grep -c '"id"' || true)
if [ "$on_victim" -ne 0 ]; then
    echo "cluster-smoke: drained node still holds $on_victim sessions" >&2
    exit 1
fi
total=$(curl -fsS "http://$router/v1/sessions" | grep -c '"id"' || true)
if [ "$total" -ne "$sessions" ]; then
    echo "cluster-smoke: router lists $total sessions after drain, want $sessions" >&2
    exit 1
fi
annotated=$(curl -fsS "http://$router/v1/sessions" | grep -c "\"node\": \"$victim\"" || true)
if [ "$annotated" -ne 0 ]; then
    echo "cluster-smoke: $annotated sessions still annotated with the drained node" >&2
    exit 1
fi

echo "cluster-smoke: one distributed trace must connect router, source node, and destination node across the drain" >&2
# Loadgen minted one X-Rmcc-Trace context per session, so a session that
# replayed on its source node, migrated, and replayed again on its
# destination has all three processes in one trace. Scan migrated
# sessions for one whose cluster-wide tracez tree shows >= 3 node stamps.
found_trace=""
while read -r msid; do
    mtrace=$(awk -v id="$msid" '$1 == id {print $2}' "$workdir/traces.txt")
    [ -n "$mtrace" ] || continue
    curl -fsS "http://$router/debug/tracez?trace=$mtrace" > "$workdir/tracez.json" || continue
    tnodes=$(grep -o '"node": "[^"]*"' "$workdir/tracez.json" | sort -u | grep -c . || true)
    if [ "$tnodes" -ge 3 ]; then
        found_trace="$mtrace"
        break
    fi
done < <(grep '"msg":"session migrated"' "$workdir/router.log" \
    | sed -n 's/.*"session":"\([^"]*\)".*/\1/p' | head -100)
if [ -z "$found_trace" ]; then
    echo "cluster-smoke: no migrated session's trace spans router + source + destination" >&2
    exit 1
fi
grep -q '"node": "router"' "$workdir/tracez.json" \
    || { echo "cluster-smoke: trace $found_trace has no router spans" >&2; exit 1; }
grep -q '"name": "engine-step"' "$workdir/tracez.json" \
    || { echo "cluster-smoke: trace $found_trace missing engine-step stage spans" >&2; exit 1; }
grep -q '"name": "router.replay"' "$workdir/tracez.json" \
    || { echo "cluster-smoke: trace $found_trace missing router.replay spans" >&2; exit 1; }
echo "cluster-smoke: trace $found_trace spans 3 processes" >&2

# The drain request itself is traced too: the router's migration arc
# (snapshot download -> restore) must be one connected trace.
# grep -m1, not grep | head -1: under pipefail a grep still writing when
# head exits dies of SIGPIPE and takes the script with it.
drain_trace=$(grep -m1 '"msg":"session migrated"' "$workdir/router.log" \
    | sed -n 's/.*"trace":"\([^"]*\)".*/\1/p')
if [ -n "$drain_trace" ]; then
    curl -fsS "http://$router/debug/tracez?trace=$drain_trace" > "$workdir/drain_tracez.json"
    for span in drain migrate snapshot-download restore; do
        grep -q "\"name\": \"$span\"" "$workdir/drain_tracez.json" \
            || { echo "cluster-smoke: drain trace missing $span span" >&2; exit 1; }
    done
    grep -q '"name": "http.restore"' "$workdir/drain_tracez.json" \
        || { echo "cluster-smoke: drain trace missing the destination node's http.restore span" >&2; exit 1; }
else
    echo "cluster-smoke: router log has no drain trace ID" >&2
    exit 1
fi

echo "cluster-smoke: rmcc-top -trace must render the cross-node tree" >&2
"$workdir/rmcc-top" -addr "$router" -trace "$found_trace" > "$workdir/trace_tree.txt"
grep -q '\[router\]' "$workdir/trace_tree.txt" \
    || { echo "cluster-smoke: rmcc-top trace view missing router rows" >&2; cat "$workdir/trace_tree.txt" >&2; exit 1; }
grep -q 'engine-step' "$workdir/trace_tree.txt" \
    || { echo "cluster-smoke: rmcc-top trace view missing stage spans" >&2; cat "$workdir/trace_tree.txt" >&2; exit 1; }

echo "cluster-smoke: router metrics must count the migrations" >&2
curl -fsS "http://$router/metrics" > "$workdir/router_metrics.txt"
grep -q 'rmcc_router_migrations_total{status="ok"} '"$migrated" "$workdir/router_metrics.txt" \
    || { echo "cluster-smoke: migration counter does not match drain result" >&2
         grep 'rmcc_router_migrations_total' "$workdir/router_metrics.txt" >&2; exit 1; }
grep -q 'rmcc_router_migrations_total{status="error"} 0' "$workdir/router_metrics.txt" \
    || { echo "cluster-smoke: migration error counter non-zero" >&2; exit 1; }
grep -q 'rmcc_router_nodes_in_ring 2' "$workdir/router_metrics.txt" \
    || { echo "cluster-smoke: ring should hold 2 nodes after the drain" >&2; exit 1; }

echo "cluster-smoke: rmcc-top -once cluster view" >&2
"$workdir/rmcc-top" -addr "$router" -once > "$workdir/top.txt"
grep -q 'nodes 2 in ring' "$workdir/top.txt" \
    || { echo "cluster-smoke: rmcc-top missing the router header" >&2; cat "$workdir/top.txt" >&2; exit 1; }
grep -q "$victim" "$workdir/top.txt" \
    || { echo "cluster-smoke: rmcc-top missing the drained node row" >&2; cat "$workdir/top.txt" >&2; exit 1; }

echo "cluster-smoke: SIGTERM router and nodes -> clean exits" >&2
kill -TERM "$router_pid"
wait "$router_pid" || { echo "cluster-smoke: router drain failed" >&2; cat "$workdir/router.log" >&2; exit 1; }
for pid in "${pids[@]}"; do
    [ "$pid" = "$router_pid" ] && continue
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" || { echo "cluster-smoke: node (pid $pid) drain failed" >&2; exit 1; }
done
pids=()

echo "cluster-smoke: PASS ($sessions sessions, $migrated migrated mid-run, zero divergence)" >&2
