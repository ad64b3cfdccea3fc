package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmcc/internal/cluster"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// testNode is one in-process rmccd behind a breakable HTTP front: flip
// broken and every request 500s, simulating a dead node without tearing
// the listener down (so it can recover on the same address).
type testNode struct {
	srv    *server.Server
	hs     *httptest.Server
	id     string // host:port
	api    *client.Client
	broken atomic.Bool
}

type testCluster struct {
	rt    *cluster.Router
	hs    *httptest.Server
	rc    *client.Client // talks through the router
	nodes []*testNode
}

func (tc *testCluster) node(id string) *testNode {
	for _, n := range tc.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

func newTestCluster(t *testing.T, nNodes int, ccfg cluster.Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < nNodes; i++ {
		tn := &testNode{srv: server.New(server.Config{NodeID: fmt.Sprintf("node-%d", i)})}
		tn.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tn.broken.Load() {
				http.Error(w, "injected failure", http.StatusInternalServerError)
				return
			}
			tn.srv.ServeHTTP(w, r)
		}))
		tn.id = tn.hs.Listener.Addr().String()
		tn.api = client.New(tn.hs.URL)
		t.Cleanup(func() {
			tn.hs.Close()
			tn.srv.Close()
		})
		tc.nodes = append(tc.nodes, tn)
		ccfg.Nodes = append(ccfg.Nodes, tn.hs.URL)
	}
	if ccfg.HealthEvery == 0 {
		// Tests drive checks synchronously via CheckNodes; park the loop.
		ccfg.HealthEvery = time.Hour
	}
	rt, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.rt = rt
	tc.hs = httptest.NewServer(rt)
	tc.rc = client.New(tc.hs.URL)
	t.Cleanup(func() {
		tc.hs.Close()
		rt.Close()
	})
	return tc
}

func cannealSession(seed uint64) server.SessionConfig {
	return server.SessionConfig{
		Mode: "rmcc", Scheme: "morphable", Seed: seed,
		Workload: "canneal", Size: "test",
	}
}

// directRun replays the same generator stream without any service in the
// way — the bit-identity reference.
func directRun(t *testing.T, seed, n uint64) sim.LifetimeResult {
	t.Helper()
	w, ok := workload.ByName(workload.SizeTest, seed, "canneal")
	if !ok {
		t.Fatal("canneal unavailable")
	}
	engCfg := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	engCfg.InitSeed = seed
	cfg := sim.DefaultLifetimeConfig(engCfg)
	cfg.MaxAccesses = n
	cfg.Seed = seed
	return sim.RunLifetime(w, cfg)
}

func assertBitIdentical(t *testing.T, label string, direct sim.LifetimeResult, got server.ReplayStats) {
	t.Helper()
	if got.Accesses != direct.Accesses {
		t.Fatalf("%s: accesses = %d, direct %d", label, got.Accesses, direct.Accesses)
	}
	if !reflect.DeepEqual(got.Engine, direct.Engine) {
		t.Fatalf("%s: engine stats diverge from direct run\nrouter: %+v\ndirect: %+v",
			label, got.Engine, direct.Engine)
	}
}

func TestRouterPlacementAndLifecycle(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.Config{})
	ctx := context.Background()

	const nSessions = 12
	ids := make([]string, 0, nSessions)
	for i := 0; i < nSessions; i++ {
		info, err := tc.rc.CreateSession(ctx, cannealSession(uint64(i+1)))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if info.Node == "" {
			t.Fatalf("create %d: no node annotation: %+v", i, info)
		}
		if owner := tc.rt.Ring().Owner(info.ID); owner != info.Node {
			t.Fatalf("session %s placed on %s, ring owner %s", info.ID, info.Node, owner)
		}
		ids = append(ids, info.ID)
	}

	// The merged listing covers every session, annotated with real nodes.
	list, err := tc.rc.ListSessions(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != nSessions {
		t.Fatalf("router listing has %d sessions, want %d", len(list), nSessions)
	}
	onNode := map[string]int{}
	for _, info := range list {
		if tc.node(info.Node) == nil {
			t.Fatalf("listing names unknown node %q", info.Node)
		}
		onNode[info.Node]++
		// The node annotation must match where the session actually lives.
		direct, err := tc.node(info.Node).api.ListSessions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range direct {
			found = found || d.ID == info.ID
		}
		if !found {
			t.Fatalf("session %s annotated on %s but absent there", info.ID, info.Node)
		}
	}
	if len(onNode) < 2 {
		t.Fatalf("12 sessions all landed on %v — ring not spreading", onNode)
	}

	// Proxied session-scoped requests: replay and snapshot.
	stats, err := tc.rc.ReplayWorkload(ctx, ids[0], 5000, 0, nil)
	if err != nil {
		t.Fatalf("replay via router: %v", err)
	}
	if stats.Accesses != 5000 {
		t.Fatalf("replay accesses = %d, want 5000", stats.Accesses)
	}
	snap, err := tc.rc.Snapshot(ctx, ids[0])
	if err != nil || snap.Stats.Accesses != 5000 {
		t.Fatalf("snapshot via router: %+v, %v", snap.Stats, err)
	}

	// Delete drops it everywhere.
	if err := tc.rc.DeleteSession(ctx, ids[1]); err != nil {
		t.Fatalf("delete via router: %v", err)
	}
	list, _ = tc.rc.ListSessions(ctx)
	if len(list) != nSessions-1 {
		t.Fatalf("listing after delete has %d sessions, want %d", len(list), nSessions-1)
	}
}

func TestRouterReplayMatchesDirectRun(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.Config{})
	ctx := context.Background()
	const n = 20_000
	info, err := tc.rc.CreateSession(ctx, cannealSession(1))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tc.rc.ReplayWorkload(ctx, info.ID, n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "via router", directRun(t, 1, n), stats)

	// The owning node's 415 for a non-RMTR body reaches the client
	// through the router unchanged.
	resp, err := http.Post(tc.hs.URL+"/v1/sessions/"+info.ID+"/replay",
		server.ContentTypeNDJSON, strings.NewReader(`{"addr":4096}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("NDJSON body via router: status %d, want 415", resp.StatusCode)
	}
}

// TestRouterDrainBitIdentical is the tentpole acceptance test in
// miniature: replay half of every session's stream, drain a node
// mid-lifetime (its sessions migrate via snapshot restore), replay the
// other half through the router, and require engine stats bit-identical
// to an uninterrupted direct run.
func TestRouterDrainBitIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.Config{
		Logger: obs.NewLogger(bytes.NewBuffer(nil), slog.LevelWarn, "text"),
	})
	ctx := context.Background()
	const nSessions, half = 9, 10_000

	ids := make([]string, 0, nSessions)
	for i := 0; i < nSessions; i++ {
		info, err := tc.rc.CreateSession(ctx, cannealSession(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		if _, err := tc.rc.ReplayWorkload(ctx, id, half, 0, nil); err != nil {
			t.Fatalf("first half %s: %v", id, err)
		}
	}

	// Drain the node holding the most sessions.
	list, err := tc.rc.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	onNode := map[string]int{}
	for _, info := range list {
		onNode[info.Node]++
	}
	victim, most := "", 0
	for node, c := range onNode {
		if c > most {
			victim, most = node, c
		}
	}
	res, err := tc.rc.DrainNode(ctx, victim)
	if err != nil {
		t.Fatalf("drain %s: %v", victim, err)
	}
	if res.Sessions != most || res.Migrated != most || res.Failed != 0 {
		t.Fatalf("drain result %+v, want %d/%d migrated", res, most, most)
	}

	// The drained node holds nothing; survivors hold everything.
	direct, err := tc.node(victim).api.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 0 {
		t.Fatalf("drained node still holds %d sessions", len(direct))
	}
	list, _ = tc.rc.ListSessions(ctx)
	if len(list) != nSessions {
		t.Fatalf("cluster listing after drain has %d sessions, want %d", len(list), nSessions)
	}
	for _, info := range list {
		if info.Node == victim {
			t.Fatalf("session %s still annotated on drained node", info.ID)
		}
		if info.Accesses != half {
			t.Fatalf("session %s lost progress across migration: %d accesses, want %d",
				info.ID, info.Accesses, half)
		}
	}

	// Cluster view reflects the drain.
	ci, err := tc.rc.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ci.Nodes {
		wantState := "active"
		if n.ID == victim {
			wantState = "drained"
		}
		if n.State != wantState || n.InRing != (wantState == "active") {
			t.Fatalf("node %s state %s in_ring %v, want %s", n.ID, n.State, n.InRing, wantState)
		}
	}

	// Second half replays through the router land on the new owners and
	// continue the exact same deterministic stream.
	for i, id := range ids {
		stats, err := tc.rc.ReplayWorkload(ctx, id, half, 0, nil)
		if err != nil {
			t.Fatalf("second half %s: %v", id, err)
		}
		assertBitIdentical(t, fmt.Sprintf("session %s post-drain", id),
			directRun(t, uint64(i+1), 2*half), stats)
	}

	// The migration metrics recorded the moves.
	var buf bytes.Buffer
	if err := tc.rt.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	pm, err := obs.ParsePromText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pm.Value("rmcc_router_migrations_total", obs.L("status", "ok")); !ok || v != float64(most) {
		t.Fatalf("rmcc_router_migrations_total{status=ok} = %v (ok=%v), want %d", v, ok, most)
	}

	// Activation puts the drained node back in the ring.
	if err := tc.rc.ActivateNode(ctx, victim); err != nil {
		t.Fatalf("activate %s: %v", victim, err)
	}
	if ci, err = tc.rc.Cluster(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range ci.Nodes {
		if n.State != "active" || !n.InRing {
			t.Fatalf("after activating %s: node %s state %s in_ring %v, want active in ring",
				victim, n.ID, n.State, n.InRing)
		}
	}
}

// TestRouterReconcileAfterRestart: a router that did not see a drain (a
// restarted one) places a migrated session by its ring alone, so it
// misroutes it to the drained node, which answers 404; once reconcile has
// listed the nodes, every session resolves through it.
func TestRouterReconcileAfterRestart(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.Config{})
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		if _, err := tc.rc.CreateSession(ctx, cannealSession(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	list, err := tc.rc.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	victim, moved := list[0].Node, list[0].ID
	if res, err := tc.rc.DrainNode(ctx, victim); err != nil || res.Migrated == 0 || res.Failed != 0 {
		t.Fatalf("drain %s: %+v, %v", victim, res, err)
	}

	nodes := make([]string, 0, len(tc.nodes))
	for _, n := range tc.nodes {
		nodes = append(nodes, n.hs.URL)
	}
	rt, err := cluster.New(cluster.Config{Nodes: nodes, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt)
	t.Cleanup(func() {
		hs.Close()
		rt.Close()
	})
	rc := client.New(hs.URL)
	if _, err := rc.Snapshot(ctx, moved); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("migrated session %s through a fresh router: %v, want 404 from the drained node", moved, err)
	}
	rt.Reconcile(ctx)
	for _, info := range list {
		if _, err := rc.Snapshot(ctx, info.ID); err != nil {
			t.Fatalf("session %s after reconcile: %v", info.ID, err)
		}
	}
}

// TestRouterDrainDuringReplays drains a node while replays are actively
// flowing through the router: the per-session gate must serialize each
// migration against that session's traffic with zero divergence.
func TestRouterDrainDuringReplays(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.Config{})
	ctx := context.Background()
	const nSessions = 6
	const chunk, rounds = 4000, 5

	ids := make([]string, 0, nSessions)
	for i := 0; i < nSessions; i++ {
		info, err := tc.rc.CreateSession(ctx, cannealSession(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	list, _ := tc.rc.ListSessions(ctx)
	victim := list[0].Node

	var wg sync.WaitGroup
	errCh := make(chan error, nSessions)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := tc.rc.ReplayWorkload(ctx, id, chunk, 0, nil); err != nil {
					errCh <- fmt.Errorf("replay %s round %d: %w", id, r, err)
					return
				}
			}
		}(id)
	}
	res, derr := tc.rc.DrainNode(ctx, victim)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if derr != nil {
		t.Fatalf("drain: %v", derr)
	}
	if res.Failed != 0 {
		t.Fatalf("drain failed migrations: %+v", res)
	}

	for i, id := range ids {
		snap, err := tc.rc.Snapshot(ctx, id)
		if err != nil {
			t.Fatalf("snapshot %s: %v", id, err)
		}
		assertBitIdentical(t, fmt.Sprintf("session %s mid-drain", id),
			directRun(t, uint64(i+1), chunk*rounds), snap.Stats)
	}
}

func TestRouterRestoreRoutesToOwner(t *testing.T) {
	tc := newTestCluster(t, 3, cluster.Config{})
	ctx := context.Background()

	info, err := tc.rc.CreateSession(ctx, cannealSession(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.rc.ReplayWorkload(ctx, info.ID, 5000, 0, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := tc.rc.CheckpointDownload(ctx, info.ID)
	if err != nil {
		t.Fatalf("checkpoint download via router: %v", err)
	}

	// Restoring while the session is live must 409.
	if _, err := tc.rc.RestoreSession(ctx, blob); !isStatus(err, http.StatusConflict) {
		t.Fatalf("restore over live session: %v, want 409", err)
	}

	if err := tc.rc.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := tc.rc.RestoreSession(ctx, blob)
	if err != nil {
		t.Fatalf("restore via router: %v", err)
	}
	if restored.ID != info.ID || restored.Accesses != 5000 {
		t.Fatalf("restored %+v, want id %s at 5000 accesses", restored, info.ID)
	}
	if owner := tc.rt.Ring().Owner(info.ID); restored.Node != owner {
		t.Fatalf("restored onto %s, ring owner %s", restored.Node, owner)
	}
	// And the stream still continues bit-identically.
	stats, err := tc.rc.ReplayWorkload(ctx, info.ID, 5000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "post-restore", directRun(t, 7, 10_000), stats)

	// Garbage blobs are rejected with the typed 422, not routed anywhere.
	if _, err := tc.rc.RestoreSession(ctx, []byte("not a snapshot")); !isStatus(err, http.StatusUnprocessableEntity) {
		t.Fatalf("garbage restore: %v, want 422", err)
	}
}

func TestRouterHealthTransitions(t *testing.T) {
	tc := newTestCluster(t, 2, cluster.Config{})
	ctx := context.Background()

	tc.rt.CheckNodes(ctx)
	ci, err := tc.rc.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ci.Nodes {
		if !n.Healthy || !n.InRing {
			t.Fatalf("node %s not healthy/in-ring at boot: %+v", n.ID, n)
		}
	}

	// Break node B: three consecutive failures take it out.
	b := tc.nodes[1]
	b.broken.Store(true)
	for i := 1; i < 3; i++ {
		tc.rt.CheckNodes(ctx)
		if ci, _ = tc.rc.Cluster(ctx); !ci.Nodes[1].Healthy || !ci.Nodes[1].InRing {
			t.Fatalf("node left the ring after %d failed checks: %+v", i, ci.Nodes[1])
		}
	}
	tc.rt.CheckNodes(ctx)
	ci, _ = tc.rc.Cluster(ctx)
	if ci.Nodes[1].Healthy || ci.Nodes[1].InRing {
		t.Fatalf("node still in ring after 3 failures: %+v", ci.Nodes[1])
	}
	if ci.Nodes[1].LastError == "" {
		t.Fatal("unhealthy node carries no last error")
	}

	// The router keeps serving: creates land on the survivor.
	if err := tc.rc.Health(ctx); err != nil {
		t.Fatalf("router unhealthy with one live node: %v", err)
	}
	info, err := tc.rc.CreateSession(ctx, cannealSession(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Node != tc.nodes[0].id {
		t.Fatalf("create landed on %s, want survivor %s", info.Node, tc.nodes[0].id)
	}

	// Recovery: two consecutive passes bring it back.
	b.broken.Store(false)
	tc.rt.CheckNodes(ctx)
	if ci, _ = tc.rc.Cluster(ctx); ci.Nodes[1].InRing {
		t.Fatal("node rejoined the ring after a single passed check")
	}
	tc.rt.CheckNodes(ctx)
	ci, _ = tc.rc.Cluster(ctx)
	if !ci.Nodes[1].Healthy || !ci.Nodes[1].InRing {
		t.Fatalf("node did not recover: %+v", ci.Nodes[1])
	}

	// A node-side graceful drain (SIGTERM path) reads as unhealthy too:
	// the node answers /statusz but reports draining.
	tc.nodes[0].srv.BeginDrain()
	for i := 0; i < 3; i++ {
		tc.rt.CheckNodes(ctx)
	}
	ci, _ = tc.rc.Cluster(ctx)
	if ci.Nodes[0].Healthy || ci.Nodes[0].InRing {
		t.Fatalf("draining node still in ring: %+v", ci.Nodes[0])
	}
}

func TestRouterDrainRefusals(t *testing.T) {
	tc := newTestCluster(t, 1, cluster.Config{})
	ctx := context.Background()
	if _, err := tc.rc.DrainNode(ctx, tc.nodes[0].id); !isStatus(err, http.StatusConflict) {
		t.Fatalf("draining the last node: %v, want 409", err)
	}
	if _, err := tc.rc.DrainNode(ctx, "10.9.9.9:1"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("draining an unknown node: %v, want 404", err)
	}
	if err := tc.rc.ActivateNode(ctx, "10.9.9.9:1"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("activating an unknown node: %v, want 404", err)
	}
}

func isStatus(err error, code int) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == code
}
