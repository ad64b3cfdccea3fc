package cluster_test

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"rmcc/internal/cluster"
	"rmcc/internal/obs"
)

// TestRouterDrainTraceConnected is the acceptance property in miniature:
// one session traced across its whole life — create, a replay on the
// source node, a drain that migrates it, a replay on the destination —
// must come back from the router's /debug/tracez?trace= fan-out as ONE
// trace whose merged tree contains router spans, source-node spans, and
// destination-node spans, stage spans included.
func TestRouterDrainTraceConnected(t *testing.T) {
	tc := newTestCluster(t, 2, cluster.Config{})
	ctx := context.Background()

	trace := obs.MintTraceContext()
	rc := tc.rc.WithTraceContext(trace)

	info, err := rc.CreateSession(ctx, cannealSession(1))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := rc.ReplayWorkload(ctx, info.ID, 5000, 0, nil); err != nil {
		t.Fatalf("replay on source: %v", err)
	}
	src := info.Node

	// Drain the owner mid-lifetime: the migration (snapshot download,
	// restore on the survivor) must ride the same trace.
	res, err := rc.DrainNode(ctx, src)
	if err != nil || res.Migrated < 1 || res.Failed != 0 {
		t.Fatalf("drain %s: %+v, %v", src, res, err)
	}
	if _, err := rc.ReplayWorkload(ctx, info.ID, 5000, 0, nil); err != nil {
		t.Fatalf("replay on destination: %v", err)
	}

	resp, err := tc.rc.Tracez(ctx, trace.TraceID(), 0)
	if err != nil {
		t.Fatalf("cluster tracez: %v", err)
	}
	if resp.Node != "router" || resp.Trace != trace.TraceID() {
		t.Fatalf("tracez header wrong: %+v", resp)
	}

	// One connected trace across three processes.
	nodes := map[string]bool{}
	names := map[string]map[string]bool{} // node -> span names
	for i, sp := range resp.Spans {
		nodes[sp.Node] = true
		if names[sp.Node] == nil {
			names[sp.Node] = map[string]bool{}
		}
		names[sp.Node][sp.Name] = true
		// Satellite: the merged view is deterministic — sorted by
		// (start, node, span ID).
		if i > 0 {
			p := resp.Spans[i-1]
			if sp.StartNS < p.StartNS ||
				(sp.StartNS == p.StartNS && sp.Node < p.Node) ||
				(sp.StartNS == p.StartNS && sp.Node == p.Node && sp.ID < p.ID) {
				t.Errorf("merged spans not sorted by (start, node, id) at %d", i)
			}
		}
	}
	if len(nodes) < 3 {
		t.Fatalf("trace spans %d distinct nodes %v, want router + 2 nodes", len(nodes), nodes)
	}
	if !nodes["router"] || !nodes["node-0"] || !nodes["node-1"] {
		t.Fatalf("node stamps = %v, want router, node-0, node-1", nodes)
	}

	// Router spans: proxied request ingress plus the drain/migration arc.
	for _, want := range []string{"router.create", "router.replay", "router.drain", "drain", "migrate", "snapshot-download", "restore"} {
		if !names["router"][want] {
			t.Errorf("router slice missing %q span (got %v)", want, names["router"])
		}
	}
	// Both nodes ran traced replays, so both carry stage spans.
	for _, node := range []string{"node-0", "node-1"} {
		for _, want := range []string{"http.replay", "replay", "decode", "engine-step"} {
			if !names[node][want] {
				t.Errorf("%s slice missing %q span (got %v)", node, want, names[node])
			}
		}
	}
	// The migration's restore landed as a traced request on the survivor,
	// and its checkpoint download as one on the source.
	if !names["node-0"]["http.restore"] && !names["node-1"]["http.restore"] {
		t.Errorf("no node carries a traced http.restore span: %v", names)
	}
	if !names["node-0"]["http.checkpoint"] && !names["node-1"]["http.checkpoint"] {
		t.Errorf("no node carries a traced http.checkpoint span: %v", names)
	}

	// Cross-process linkage: node-side ingress spans name a remote parent
	// (the router's span ID, or the client's for direct hits).
	remoteLinked := 0
	for _, sp := range resp.Spans {
		if sp.Node != "router" && strings.HasPrefix(sp.Name, "http.") && sp.Remote != 0 {
			remoteLinked++
		}
	}
	if remoteLinked == 0 {
		t.Error("no node ingress span carries a remote parent link")
	}
}

// TestRouterTraceHeaderRejection: the router enforces the same 400-never-5xx
// contract on malformed X-Rmcc-Trace as the nodes, before proxying.
func TestRouterTraceHeaderRejection(t *testing.T) {
	tc := newTestCluster(t, 2, cluster.Config{})
	for _, hdr := range []string{
		"garbage",
		"00-ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ-00f067aa0ba902b7-01",
		obs.MintTraceContext().String() + strings.Repeat("0", 1024),
	} {
		req, err := http.NewRequest(http.MethodGet, tc.hs.URL+"/v1/sessions", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, hdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("header %.20q: status %d, want 400", hdr, resp.StatusCode)
		}
	}

	// And the fan-out lookup validates its input.
	if _, err := tc.rc.Tracez(context.Background(), strings.Repeat("x", 32), 0); !isStatus(err, http.StatusBadRequest) {
		t.Errorf("bad trace lookup: %v, want 400", err)
	}
}
