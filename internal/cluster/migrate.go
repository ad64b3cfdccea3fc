package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
)

// Drain-by-migration: every session on the draining node is snapshotted
// (the node-side replay lease makes the snapshot a consistent cut),
// restored on its new ring owner, deleted at the source, and repointed —
// all under the session's write-side migration gate, so a client
// replaying through the router never observes the move beyond a brief
// stall: requests in flight finish against the source, queued ones
// unblock against the target, and the replay stream stays bit-identical.

// drainNode migrates every session off src. The ring has already been
// rebuilt without src by the caller. The listing pass repeats until the
// node reports empty: a create that sampled the ring just before the
// drain flipped it can still land a session on src after the first
// listing, and a single pass would strand it there.
func (rt *Router) drainNode(ctx context.Context, src *node, tc obs.TraceContext) server.DrainResult {
	start := time.Now()
	res := server.DrainResult{Node: src.id}
	seen := make(map[string]bool)
	for round := 0; round < 5; round++ {
		infos, err := src.api.ListSessions(ctx)
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("list sessions on %s: %v", src.id, err))
			break
		}
		var fresh []string
		for _, info := range infos {
			if !seen[info.ID] {
				seen[info.ID] = true
				fresh = append(fresh, info.ID)
			}
		}
		if len(fresh) == 0 {
			break
		}
		res.Sessions += len(fresh)
		if round > 0 {
			rt.log.Info("drain: late arrivals", "node", src.id, "sessions", len(fresh))
		}
		sem := make(chan struct{}, migrateConcurrency)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, id := range fresh {
			wg.Add(1)
			sem <- struct{}{}
			go func(id string) {
				defer wg.Done()
				defer func() { <-sem }()
				err := rt.migrateSession(ctx, id, src, tc)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					res.Failed++
					if len(res.Errors) < 16 {
						res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", id, err))
					}
					return
				}
				res.Migrated++
			}(id)
		}
		wg.Wait()
		if res.Failed > 0 {
			break // a stuck session would loop forever; report and stop
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res
}

// migrateSession moves one session from src to its current ring owner:
// gate-write-lock, snapshot download, restore on the target, delete at
// the source, repoint. Idempotent for sessions that already moved or
// vanished (evicted, deleted) since the drain listing. The drain trace
// threads through every hop: the migrate span parents the
// snapshot-download and restore spans, and the node API calls carry the
// rebased context so both nodes record their side under the same trace.
func (rt *Router) migrateSession(ctx context.Context, id string, src *node, tc obs.TraceContext) error {
	v, _ := rt.entries.LoadOrStore(id, &entry{})
	e := v.(*entry)
	// Taking the write lock waits out every in-flight request on this
	// session and blocks new ones until the move lands.
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.node.Load(); cur != nil && cur != src {
		return nil // already migrated (racing drain, earlier retry)
	}
	owner := rt.ring.Load().Owner(id)
	if owner == "" || owner == src.id {
		return errors.New("no migration target in ring")
	}
	target := rt.nodes[owner]
	start := time.Now()
	msp := rt.spans.StartT("migrate", id, tc.SpanID, tc)
	defer msp.End()
	tc.SpanID = msp.ID()

	blob, err := rt.snapshotWithRetry(ctx, src, id, tc)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			// Gone between listing and now (TTL eviction, client delete):
			// nothing to move.
			e.node.Store(nil)
			return nil
		}
		rt.mMigrationsFail.Inc()
		return fmt.Errorf("snapshot on %s: %w", src.id, err)
	}

	rsp := rt.spans.StartT("restore", id, tc.SpanID, tc)
	rtc := tc
	rtc.SpanID = rsp.ID()
	api := target.api.WithTraceContext(rtc)
	if _, err := api.RestoreSession(ctx, blob); err != nil {
		var ae *client.APIError
		// Restore-conflict semantics: a stale copy on the target (a crash
		// between restore and source-delete in an earlier attempt) loses
		// to the fresh snapshot — replace it once.
		if errors.As(err, &ae) && ae.Status == http.StatusConflict {
			if derr := api.DeleteSession(ctx, id); derr == nil {
				_, err = api.RestoreSession(ctx, blob)
			}
		}
		if err != nil {
			rsp.End()
			rt.mMigrationsFail.Inc()
			return fmt.Errorf("restore on %s: %w", target.id, err)
		}
	}
	rsp.End()

	// The target owns the state now; the source copy must go so it can
	// never serve (and then lose) a stray write. Best-effort: we hold the
	// gate, so nothing routed can touch the source copy, and the node's
	// TTL janitor reaps it if the delete fails.
	if err := src.api.WithTraceContext(tc).DeleteSession(ctx, id); err != nil {
		rt.log.Warn("migrate: source delete failed",
			"session", id, "node", src.id, "error", err)
	}

	e.node.Store(target)
	rt.mMigrationsOK.Inc()
	rt.mMigrationUS.Observe(uint64(time.Since(start).Microseconds()))
	rt.mMigrationBytes.Observe(uint64(len(blob)))
	rt.log.Info("session migrated", "session", id, "trace", tc.TraceID(),
		"from", src.id, "to", target.id, "bytes", len(blob))
	return nil
}

// snapshotWithRetry downloads a session checkpoint, waiting out
// transient 409s (the node's periodic checkpointer briefly holds the
// replay lease; with the gate write-locked nothing else can).
func (rt *Router) snapshotWithRetry(ctx context.Context, src *node, id string, tc obs.TraceContext) ([]byte, error) {
	ssp := rt.spans.StartT("snapshot-download", id, tc.SpanID, tc)
	defer ssp.End()
	tc.SpanID = ssp.ID()
	api := src.api.WithTraceContext(tc)
	for attempt := 0; ; attempt++ {
		blob, err := api.CheckpointDownload(ctx, id)
		if err == nil {
			return blob, nil
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusConflict || attempt >= 100 {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
