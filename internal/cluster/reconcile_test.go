package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rmcc/internal/server"
)

// TestReconcileFillsGatedEntry: reconcile learns a listed session's node
// even while a proxied request holds the session's read gate (a request
// may hold it past the moment its client has the answer), and leaves a
// location it already knows alone.
func TestReconcileFillsGatedEntry(t *testing.T) {
	const gated, routed = "s-00000000000000cc", "s-00000000000000dd"
	lister := func(ids ...string) *httptest.Server {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/sessions" {
				http.NotFound(w, r)
				return
			}
			infos := make([]server.SessionInfo, 0, len(ids))
			for _, id := range ids {
				infos = append(infos, server.SessionInfo{ID: id})
			}
			_ = json.NewEncoder(w).Encode(infos)
		}))
		t.Cleanup(hs.Close)
		return hs
	}
	a, b := lister(gated, routed), lister()
	rt, err := New(Config{Nodes: []string{a.URL, b.URL}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	nodeA, nodeB := rt.nodeList[0], rt.nodeList[1]

	e := &entry{}
	rt.entries.Store(gated, e)
	moved := &entry{}
	moved.node.Store(nodeB)
	rt.entries.Store(routed, moved)

	e.mu.RLock() // a proxied request in flight
	rt.reconcile(context.Background())
	e.mu.RUnlock()
	if got := e.node.Load(); got != nodeA {
		t.Fatalf("gated session routed to %v after reconcile, want %s", got, nodeA.id)
	}
	if got := moved.node.Load(); got != nodeB {
		t.Fatalf("known location overwritten: %s, want %s", got.id, nodeB.id)
	}
}
