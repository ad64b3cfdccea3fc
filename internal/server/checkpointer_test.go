package server

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestCheckpointDirty: the periodic checkpointer cuts a session whose
// access count moved since its last checkpoint (or that never had one),
// skips one that did not move, and skips one whose replay lease is held
// until the lease is released.
func TestCheckpointDirty(t *testing.T) {
	s := New(Config{SnapshotDir: t.TempDir(), SnapshotEvery: time.Hour})
	t.Cleanup(s.Close)
	ctx := context.Background()
	sc := SessionConfig{Mode: "rmcc", Scheme: "morphable", Seed: 1, Workload: "canneal", Size: "test"}
	var moved, idle, leased *session
	for i, p := range []**session{&moved, &idle, &leased} {
		sess, err := s.buildSession(fmt.Sprintf("s-%d", i+1), sc, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.register(sess, time.Now()); err != nil {
			t.Fatal(err)
		}
		*p = sess
	}
	step := func(sess *session) {
		g := &generator{sess: sess, n: 1000, chunk: 1000}
		clk := &stageClock{spans: s.spans, id: sess.id, last: time.Now().UnixNano()}
		applied, err := s.replayBatches(ctx, sess, g, &replayWriter{}, clk)
		if err != nil {
			t.Fatal(err)
		}
		g.settle(applied)
	}

	if n := s.checkpointDirty(); n != 3 {
		t.Fatalf("first pass cut %d checkpoints, want all 3", n)
	}
	idleAt := idle.lastCkptNS.Load()
	step(moved)
	step(leased)
	if ok, _ := leased.acquire(); !ok {
		t.Fatal("lease busy")
	}
	if n := s.checkpointDirty(); n != 1 {
		t.Fatalf("second pass cut %d checkpoints, want 1", n)
	}
	if got := moved.lastCkptAccesses.Load(); got != 1000 {
		t.Errorf("moved session checkpointed at %d accesses, want 1000", got)
	}
	if idle.lastCkptNS.Load() != idleAt {
		t.Error("idle session checkpointed again")
	}
	if got := leased.lastCkptAccesses.Load(); got != 0 {
		t.Errorf("leased session checkpointed at %d accesses while its lease was held", got)
	}
	leased.release()
	if n := s.checkpointDirty(); n != 1 || leased.lastCkptAccesses.Load() != 1000 {
		t.Fatalf("after release: cut %d, leased session at %d accesses; want 1 cut at 1000",
			n, leased.lastCkptAccesses.Load())
	}
	if n := s.checkpointDirty(); n != 0 {
		t.Fatalf("quiet pass cut %d checkpoints, want 0", n)
	}
}
