// Command rmcc-top is a live watch client for an rmccd daemon, in the
// spirit of top(1): it polls /metrics and the session listing on an
// interval and renders a refreshing terminal dashboard — daemon header
// (uptime, sessions, replay counts, stage latency quantiles) plus one row
// per live session with its hit rates, memoization coverage, and
// per-chunk replay latency percentiles.
//
// It needs nothing beyond the public service surface: every number comes
// from the Prometheus exposition or the SessionInfo JSON, so it works
// against any reachable daemon.
//
// Examples:
//
//	rmcc-top -addr http://127.0.0.1:8077
//	rmcc-top -addr http://$ADDR -interval 500ms
//	rmcc-top -once          # single snapshot, no screen clearing (CI, pipes)
//	rmcc-top -addr http://$ROUTER -trace 4bf92f3577b34da6a3ce929d0e0e4736  # one trace, cluster-wide
//	rmcc-top -flight /var/lib/rmcc/flight.rec   # decode a crashed node's flight dump
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8077", "rmccd base URL (scheme optional)")
		interval = flag.Duration("interval", 2*time.Second, "poll/refresh interval")
		once     = flag.Bool("once", false, "render a single snapshot and exit (no screen clearing)")
		traceID  = flag.String("trace", "", "render the /debug/tracez tree for this 32-hex trace ID and exit (cluster-wide via rmcc-router)")
		flight   = flag.String("flight", "", "decode a flight-recorder dump file (- for stdin) and exit; no daemon needed")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-poll request deadline")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-top"))
		return
	}
	if *flight != "" {
		if err := runFlight(os.Stdout, *flight); err != nil {
			fmt.Fprintln(os.Stderr, "rmcc-top:", err)
			os.Exit(1)
		}
		return
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := client.New(base)
	if *traceID != "" {
		if err := runTrace(c, *traceID, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "rmcc-top:", err)
			os.Exit(1)
		}
		return
	}

	for {
		frame, err := snapshot(c, *timeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmcc-top:", err)
			if *once {
				os.Exit(1)
			}
		} else {
			if !*once {
				// Clear screen and home the cursor between frames.
				fmt.Print("\x1b[2J\x1b[H")
			}
			fmt.Print(frame)
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// snapshot polls the daemon once and renders a full frame.
func snapshot(c *client.Client, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	text, err := c.RawMetrics(ctx)
	if err != nil {
		return "", fmt.Errorf("scrape metrics: %w", err)
	}
	pm, err := obs.ParsePromText(strings.NewReader(text))
	if err != nil {
		return "", fmt.Errorf("parse metrics: %w", err)
	}
	sessions, err := c.ListSessions(ctx)
	if err != nil {
		return "", fmt.Errorf("list sessions: %w", err)
	}
	return render(pm, sessions, time.Now()), nil
}

func render(pm *obs.PromText, sessions []server.SessionInfo, now time.Time) string {
	// Pointed at rmcc-router instead of a single daemon? The metrics page
	// says so; render the cluster dashboard.
	if _, ok := pm.Value("rmcc_router_uptime_seconds"); ok {
		return renderCluster(pm, sessions, now)
	}
	var sb strings.Builder

	uptime, _ := pm.Value("rmccd_uptime_seconds")
	active, _ := pm.Value("rmccd_sessions_active")
	replaysOK, _ := pm.Value("rmccd_replays_total", obs.L("status", "ok"))
	replaysErr, _ := pm.Value("rmccd_replays_total", obs.L("status", "error"))
	accesses, _ := pm.Value("rmccd_replay_accesses_total")
	spans, _ := pm.Value("rmccd_spans_total")
	logLines, _ := pm.Value("rmccd_log_lines_total")

	fmt.Fprintf(&sb, "rmcc-top — %s  up %s  sessions %.0f  replays %.0f ok / %.0f err  accesses %s  spans %.0f  log-lines %.0f\n",
		now.UTC().Format("15:04:05"),
		(time.Duration(uptime) * time.Second).String(),
		active, replaysOK, replaysErr, human(accesses), spans, logLines)

	// Per-stage replay latency quantiles from the daemon-side histograms,
	// in the order a replay passes through them.
	sb.WriteString("stage latency (µs):")
	for _, stage := range []string{"decode", "engine-step", "rollup", "encode"} {
		p50, ok := pm.HistQuantile("rmccd_replay_stage_duration_us", 0.50, obs.L("stage", stage))
		if !ok {
			continue
		}
		p99, _ := pm.HistQuantile("rmccd_replay_stage_duration_us", 0.99, obs.L("stage", stage))
		fmt.Fprintf(&sb, "  %s p50 %.0f p99 %.0f", stage, p50, p99)
	}
	sb.WriteString("\n\n")

	fmt.Fprintf(&sb, "%-12s %-12s %12s %9s %9s %7s %9s %9s %7s %-9s\n",
		"SESSION", "WORKLOAD", "ACCESSES", "CTR-MISS%", "MEMO-HIT%", "ACCEL%", "P50µs", "P99µs", "CKPT", "STATE")
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Accesses > sessions[j].Accesses })
	for _, s := range sessions {
		state := "idle"
		if s.Replaying {
			state = "replaying"
		}
		workload := s.Workload
		if workload == "" {
			workload = s.Name
		}
		ckpt := "-"
		if s.LastCheckpoint != "" {
			ckpt = (time.Duration(s.CheckpointAgeSecs) * time.Second).String()
		}
		fmt.Fprintf(&sb, "%-12s %-12s %12s %9.1f %9.1f %7.1f %9.0f %9.0f %7s %-9s\n",
			s.ID, workload, human(float64(s.Accesses)),
			100*s.CtrMissRate, 100*s.MemoHitRateOnMisses, 100*s.AcceleratedRate,
			s.ReplayP50us, s.ReplayP99us, ckpt, state)
	}
	if len(sessions) == 0 {
		sb.WriteString("(no live sessions)\n")
	}
	return sb.String()
}

// renderCluster is the router dashboard: router header, one row per
// node from the rmcc_router_node_* gauges, then the merged session
// table with each session's NODE.
func renderCluster(pm *obs.PromText, sessions []server.SessionInfo, now time.Time) string {
	var sb strings.Builder

	uptime, _ := pm.Value("rmcc_router_uptime_seconds")
	inRing, _ := pm.Value("rmcc_router_nodes_in_ring")
	routed, _ := pm.Value("rmcc_router_sessions_routed")
	migOK, _ := pm.Value("rmcc_router_migrations_total", obs.L("status", "ok"))
	migErr, _ := pm.Value("rmcc_router_migrations_total", obs.L("status", "error"))
	proxyErrs, _ := pm.Value("rmcc_router_proxy_errors_total")

	fmt.Fprintf(&sb, "rmcc-top — %s  router up %s  nodes %.0f in ring  sessions %.0f routed  migrations %.0f ok / %.0f err  proxy-errs %.0f\n\n",
		now.UTC().Format("15:04:05"),
		(time.Duration(uptime) * time.Second).String(),
		inRing, routed, migOK, migErr, proxyErrs)

	fmt.Fprintf(&sb, "%-22s %-9s %7s %5s %9s %12s %10s %10s\n",
		"NODE", "STATE", "HEALTHY", "RING", "SESSIONS", "REPLAY-P99µs", "CHECKS-OK", "CHECKS-ERR")
	for _, id := range clusterNodes(pm) {
		healthy, _ := pm.Value("rmcc_router_node_healthy", obs.L("node", id))
		ring, _ := pm.Value("rmcc_router_node_in_ring", obs.L("node", id))
		draining, _ := pm.Value("rmcc_router_node_draining", obs.L("node", id))
		nsess, _ := pm.Value("rmcc_router_node_sessions", obs.L("node", id))
		p99, _ := pm.Value("rmcc_router_node_replay_p99_us", obs.L("node", id))
		chkOK, _ := pm.Value("rmcc_router_health_checks_total", obs.L("node", id), obs.L("result", "ok"))
		chkFail, _ := pm.Value("rmcc_router_health_checks_total", obs.L("node", id), obs.L("result", "fail"))
		state := "active"
		if draining > 0 {
			state = "draining"
		}
		fmt.Fprintf(&sb, "%-22s %-9s %7s %5s %9.0f %12.0f %10.0f %10.0f\n",
			id, state, yn(healthy > 0), yn(ring > 0), nsess, p99, chkOK, chkFail)
	}
	sb.WriteByte('\n')

	fmt.Fprintf(&sb, "%-20s %-22s %-12s %12s %9s %9s %9s %9s %-9s\n",
		"SESSION", "NODE", "WORKLOAD", "ACCESSES", "CTR-MISS%", "MEMO-HIT%", "P50µs", "P99µs", "STATE")
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Accesses > sessions[j].Accesses })
	for _, s := range sessions {
		state := "idle"
		if s.Replaying {
			state = "replaying"
		}
		workload := s.Workload
		if workload == "" {
			workload = s.Name
		}
		fmt.Fprintf(&sb, "%-20s %-22s %-12s %12s %9.1f %9.1f %9.0f %9.0f %-9s\n",
			s.ID, s.Node, workload, human(float64(s.Accesses)),
			100*s.CtrMissRate, 100*s.MemoHitRateOnMisses,
			s.ReplayP50us, s.ReplayP99us, state)
	}
	if len(sessions) == 0 {
		sb.WriteString("(no live sessions)\n")
	}
	return sb.String()
}

// clusterNodes collects the node IDs present on the router metrics page,
// sorted.
func clusterNodes(pm *obs.PromText) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range pm.Samples {
		if s.Name != "rmcc_router_node_healthy" {
			continue
		}
		if id := s.Label("node"); id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// human renders a count with k/M suffixes for the dashboard columns.
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
