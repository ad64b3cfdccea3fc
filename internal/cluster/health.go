package cluster

import (
	"context"
	"math"
	"strings"
	"time"

	"rmcc/internal/obs"
)

// The health checker polls each node's /statusz (liveness plus the
// node-side draining flag) and /metrics (ParsePromText: live session
// count and replay p99 for the cluster view). A node fails failAfter (3)
// consecutive checks before it leaves the ring, and passes recoverAfter
// (2) consecutive checks before it rejoins — hysteresis so one slow scrape
// doesn't reshuffle session placement.

func (rt *Router) healthLoop() {
	defer close(rt.healthDone)
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	ticks := 0
	for {
		select {
		case <-t.C:
			rt.CheckNodes(context.Background())
			ticks++
			if ticks%reconcileEvery == 0 {
				rt.reconcile(context.Background())
			}
		case <-rt.healthStop:
			return
		}
	}
}

// CheckNodes runs one health-check cycle over every node. Exported so
// tests (and cmd/rmcc-router at boot) can drive checks synchronously;
// must not race the background loop's own calls — the per-node
// consecutive counters assume one checker.
func (rt *Router) CheckNodes(ctx context.Context) {
	for _, n := range rt.nodeList {
		rt.checkNode(ctx, n)
	}
}

func (rt *Router) checkNode(ctx context.Context, n *node) {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	err := rt.scrapeNode(ctx, n)
	if err == nil {
		rt.mHealthOK[n.id].Inc()
		n.lastErr.Store(nil)
		n.consecOK++
		n.consecFail = 0
		if !n.healthy.Load() && n.consecOK >= recoverAfter {
			rt.log.Info("node healthy", "node", n.id, "after_checks", n.consecOK)
			rt.mu.Lock()
			n.healthy.Store(true)
			rt.syncRingLocked()
			rt.mu.Unlock()
		}
		return
	}
	rt.mHealthFail[n.id].Inc()
	msg := err.Error()
	n.lastErr.Store(&msg)
	n.consecFail++
	n.consecOK = 0
	if n.healthy.Load() && n.consecFail >= failAfter {
		rt.log.Warn("node unhealthy", "node", n.id,
			"after_checks", n.consecFail, "error", err)
		rt.mu.Lock()
		n.healthy.Store(false)
		rt.syncRingLocked()
		rt.mu.Unlock()
	}
}

// scrapeNode is one check: statusz must answer and not report a
// node-side drain, and the metrics page must parse. The scraped session
// count and replay p99 feed the rmcc_router_node_* gauges.
func (rt *Router) scrapeNode(ctx context.Context, n *node) error {
	st, err := n.api.Statusz(ctx)
	if err != nil {
		return err
	}
	if st.Draining {
		return errDraining
	}
	raw, err := n.api.RawMetrics(ctx)
	if err != nil {
		return err
	}
	pm, err := obs.ParsePromText(strings.NewReader(raw))
	if err != nil {
		return err
	}
	if v, ok := pm.Value("rmccd_sessions_active"); ok {
		n.sessions.Store(int64(v))
	}
	if p99, ok := pm.HistQuantile("rmccd_request_duration_us", 0.99,
		obs.L("endpoint", "replay")); ok {
		n.p99us.Store(math.Float64bits(p99))
	}
	return nil
}

// errDraining marks a node that answered but is shutting itself down.
type drainingError struct{}

func (drainingError) Error() string { return "node reports draining" }

var errDraining = drainingError{}

// reconcile seeds routed locations from node listings — how a restarted
// router (empty entries map) relearns where previously migrated
// sessions live instead of trusting the ring for them. It only fills
// unknown locations, and does so without the entry's gate: a proxied
// request holds the read side until the proxy returns, which can be after
// its client has the answer, and a migration's repoint under the write
// side still wins.
func (rt *Router) reconcile(ctx context.Context) {
	for _, n := range rt.nodeList {
		if !n.healthy.Load() {
			continue
		}
		infos, err := n.api.ListSessions(ctx)
		if err != nil {
			continue
		}
		for _, info := range infos {
			v, _ := rt.entries.LoadOrStore(info.ID, &entry{})
			v.(*entry).node.CompareAndSwap(nil, n)
		}
	}
}
