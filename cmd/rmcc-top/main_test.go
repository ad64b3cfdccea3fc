package main

import (
	"strings"
	"testing"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/server"
)

const sampleMetrics = `# HELP rmccd_uptime_seconds seconds since the daemon started
rmccd_uptime_seconds 125
rmccd_sessions_active 2
rmccd_replays_total{status="ok"} 7
rmccd_replays_total{status="error"} 1
rmccd_replay_accesses_total 3500000
rmccd_spans_total 42
rmccd_log_lines_total 9
rmccd_replay_stage_duration_us_bucket{le="128",stage="engine-step"} 5
rmccd_replay_stage_duration_us_bucket{le="+Inf",stage="engine-step"} 10
rmccd_replay_stage_duration_us_count{stage="engine-step"} 10
rmccd_replay_stage_duration_us_sum{stage="engine-step"} 1000
rmccd_replay_stage_duration_us_bucket{le="16",stage="decode"} 11
rmccd_replay_stage_duration_us_bucket{le="+Inf",stage="decode"} 12
rmccd_replay_stage_duration_us_count{stage="decode"} 12
rmccd_replay_stage_duration_us_sum{stage="decode"} 96
rmccd_replay_stage_duration_us_bucket{le="4",stage="rollup"} 2
rmccd_replay_stage_duration_us_bucket{le="+Inf",stage="rollup"} 2
rmccd_replay_stage_duration_us_count{stage="rollup"} 2
rmccd_replay_stage_duration_us_sum{stage="rollup"} 6
`

func TestRenderFrame(t *testing.T) {
	pm, err := obs.ParsePromText(strings.NewReader(sampleMetrics))
	if err != nil {
		t.Fatal(err)
	}
	sessions := []server.SessionInfo{
		{ID: "s-1", Workload: "canneal", Accesses: 3_000_000,
			CtrMissRate: 0.25, MemoHitRateOnMisses: 0.8, AcceleratedRate: 0.6,
			ReplayP50us: 120, ReplayP99us: 900, Replaying: true},
		{ID: "s-2", Name: "dedup", Accesses: 500_000},
	}
	frame := render(pm, sessions, time.Unix(0, 0).UTC())
	for _, want := range []string{
		"sessions 2", "replays 7 ok / 1 err", "accesses 3.50M",
		"stage latency (µs):  decode p50 9 p99 16  engine-step p50 128 p99 128  rollup p50 2 p99 4\n\n",
		"SESSION", "CTR-MISS%", "P99µs",
		"s-1", "canneal", "replaying",
		"s-2", "dedup", "idle",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// Busiest session sorts first.
	if strings.Index(frame, "s-1") > strings.Index(frame, "s-2") {
		t.Errorf("sessions not sorted by accesses:\n%s", frame)
	}
}

const sampleRouterMetrics = `# HELP rmcc_router_uptime_seconds seconds since the router started
rmcc_router_uptime_seconds 65
rmcc_router_nodes_in_ring 2
rmcc_router_sessions_routed 3
rmcc_router_migrations_total{status="ok"} 4
rmcc_router_migrations_total{status="error"} 0
rmcc_router_proxy_errors_total 1
rmcc_router_node_healthy{node="127.0.0.1:8077"} 1
rmcc_router_node_healthy{node="127.0.0.1:8078"} 1
rmcc_router_node_in_ring{node="127.0.0.1:8077"} 1
rmcc_router_node_in_ring{node="127.0.0.1:8078"} 0
rmcc_router_node_draining{node="127.0.0.1:8077"} 0
rmcc_router_node_draining{node="127.0.0.1:8078"} 1
rmcc_router_node_sessions{node="127.0.0.1:8077"} 3
rmcc_router_node_sessions{node="127.0.0.1:8078"} 0
rmcc_router_node_replay_p99_us{node="127.0.0.1:8077"} 850
rmcc_router_node_replay_p99_us{node="127.0.0.1:8078"} 0
rmcc_router_health_checks_total{node="127.0.0.1:8077",result="ok"} 30
rmcc_router_health_checks_total{node="127.0.0.1:8077",result="fail"} 0
rmcc_router_health_checks_total{node="127.0.0.1:8078",result="ok"} 28
rmcc_router_health_checks_total{node="127.0.0.1:8078",result="fail"} 2
`

// TestRenderClusterFrame: pointed at rmcc-router, the dashboard switches
// to the cluster view — node table from the rmcc_router_node_* gauges
// plus the merged session table with the routed NODE column.
func TestRenderClusterFrame(t *testing.T) {
	pm, err := obs.ParsePromText(strings.NewReader(sampleRouterMetrics))
	if err != nil {
		t.Fatal(err)
	}
	sessions := []server.SessionInfo{
		{ID: "s-00aa", Workload: "canneal", Node: "127.0.0.1:8077",
			Accesses: 9000, Replaying: true},
		{ID: "s-00bb", Workload: "dedup", Node: "127.0.0.1:8077", Accesses: 100},
	}
	frame := render(pm, sessions, time.Unix(0, 0).UTC())
	for _, want := range []string{
		"router up 1m5s", "nodes 2 in ring", "sessions 3 routed",
		"migrations 4 ok / 0 err", "proxy-errs 1",
		"NODE", "CHECKS-ERR",
		"127.0.0.1:8077", "active", "yes",
		"127.0.0.1:8078", "draining", "no",
		"s-00aa", "canneal", "replaying",
		"s-00bb", "dedup", "idle",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("cluster frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "stage latency") {
		t.Errorf("cluster frame fell through to the single-daemon view:\n%s", frame)
	}
	// Draining node row: healthy=yes but ring=no.
	for _, line := range strings.Split(frame, "\n") {
		if strings.HasPrefix(line, "127.0.0.1:8078") {
			if !strings.Contains(line, "draining") || !strings.Contains(line, "no") {
				t.Errorf("draining node row wrong: %q", line)
			}
		}
	}
}

func TestRenderNoSessions(t *testing.T) {
	pm, err := obs.ParsePromText(strings.NewReader("rmccd_uptime_seconds 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	frame := render(pm, nil, time.Unix(0, 0))
	if !strings.Contains(frame, "(no live sessions)") {
		t.Errorf("empty listing not handled:\n%s", frame)
	}
}

func TestHuman(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {950, "950"}, {12_500, "12.5k"}, {3_500_000, "3.50M"}, {2e9, "2.00G"},
	} {
		if got := human(tc.v); got != tc.want {
			t.Errorf("human(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
