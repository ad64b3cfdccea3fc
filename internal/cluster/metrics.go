package cluster

import (
	"math"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
)

// Router metric series (all under the rmcc_router_ prefix):
//
//	rmcc_router_requests_total{endpoint,class}    — request outcomes
//	rmcc_router_request_duration_us{endpoint}     — request latency
//	rmcc_router_node_healthy{node}                — last health verdict
//	rmcc_router_node_in_ring{node}                — eligible for new sessions
//	rmcc_router_node_draining{node}               — admin drain state
//	rmcc_router_node_sessions{node}               — scraped live sessions
//	rmcc_router_node_replay_p99_us{node}          — scraped replay p99
//	rmcc_router_health_checks_total{node,result}  — checker activity
//	rmcc_router_migrations_total{status}          — drain migrations
//	rmcc_router_migration_duration_us             — per-session move time
//	rmcc_router_migration_bytes                   — snapshot blob sizes
//	rmcc_router_spans_total                       — router spans completed
//	rmcc_router_spans_dropped_total               — span-store evictions
//
// The request series are registered lazily by instrument(); everything
// else lives here. rmcc-top's cluster view renders the node gauges.
func (rt *Router) initMetrics() {
	rt.mMigrationsOK = rt.reg.Counter("rmcc_router_migrations_total",
		"drain session migrations, by outcome", obs.L("status", "ok"))
	rt.mMigrationsFail = rt.reg.Counter("rmcc_router_migrations_total", "",
		obs.L("status", "error"))
	rt.mMigrationUS = rt.reg.Histogram("rmcc_router_migration_duration_us",
		"per-session migration wall time in microseconds (snapshot + restore + delete)",
		obs.Pow2Buckets(4, 26))
	rt.mMigrationBytes = rt.reg.Histogram("rmcc_router_migration_bytes",
		"encoded checkpoint size per migrated session", obs.Pow2Buckets(10, 32))
	rt.mProxyErrors = rt.reg.Counter("rmcc_router_proxy_errors_total",
		"proxied requests that failed to reach their node")
	rt.reg.CounterFunc("rmcc_router_spans_total", "router spans completed",
		func() uint64 { return rt.spans.Total() })
	rt.reg.CounterFunc("rmcc_router_spans_dropped_total",
		"router spans evicted from the span store before any export read them",
		func() uint64 { return rt.spans.Dropped() })

	rt.mHealthOK = make(map[string]*obs.Counter, len(rt.nodeList))
	rt.mHealthFail = make(map[string]*obs.Counter, len(rt.nodeList))
	for _, n := range rt.nodeList {
		n := n
		rt.mHealthOK[n.id] = rt.reg.Counter("rmcc_router_health_checks_total",
			"node health checks, by node and result",
			obs.L("node", n.id), obs.L("result", "ok"))
		rt.mHealthFail[n.id] = rt.reg.Counter("rmcc_router_health_checks_total", "",
			obs.L("node", n.id), obs.L("result", "fail"))
		rt.reg.GaugeFunc("rmcc_router_node_healthy",
			"1 when the node's last health verdict was ok",
			func() float64 { return b2f(n.healthy.Load()) }, obs.L("node", n.id))
		rt.reg.GaugeFunc("rmcc_router_node_in_ring",
			"1 when the node is eligible for new sessions",
			func() float64 {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				return b2f(n.inRing)
			}, obs.L("node", n.id))
		rt.reg.GaugeFunc("rmcc_router_node_draining",
			"1 when the node is draining or drained",
			func() float64 {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				return b2f(n.mode != nodeActive)
			}, obs.L("node", n.id))
		rt.reg.GaugeFunc("rmcc_router_node_sessions",
			"live sessions on the node at the last successful scrape",
			func() float64 { return float64(n.sessions.Load()) }, obs.L("node", n.id))
		rt.reg.GaugeFunc("rmcc_router_node_replay_p99_us",
			"node replay-endpoint p99 latency (µs) at the last successful scrape",
			func() float64 { return math.Float64frombits(n.p99us.Load()) },
			obs.L("node", n.id))
	}

	rt.reg.GaugeFunc("rmcc_router_sessions_routed",
		"sessions with a known routed location",
		func() float64 {
			c := 0
			rt.entries.Range(func(_, v any) bool {
				if v.(*entry).node.Load() != nil {
					c++
				}
				return true
			})
			return float64(c)
		})
	rt.reg.GaugeFunc("rmcc_router_nodes_in_ring", "current ring membership count",
		func() float64 { return float64(rt.ring.Load().Len()) })
	rt.reg.GaugeFunc("rmcc_router_uptime_seconds", "seconds since the router started",
		func() float64 { return time.Since(rt.started).Seconds() })
	rt.reg.GaugeFunc("rmcc_router_build_info",
		"constant 1, labeled with the router build version and revision",
		func() float64 { return 1 },
		obs.L("revision", buildinfo.GitSHA()), obs.L("version", buildinfo.Version()))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
