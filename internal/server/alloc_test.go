package server

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/workload"
)

// newAllocTestSession builds a server plus a session exactly the way
// handleCreate does, bypassing HTTP.
func newAllocTestSession(t *testing.T, cfg Config) (*Server, *session) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	sc := SessionConfig{Mode: "rmcc", Scheme: "morphable", Seed: 1, Workload: "canneal", Size: "test"}
	sess, err := s.buildSession("s-a110c", sc, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return s, sess
}

// TestReplayChunkInstrumentationAllocFree pins the per-batch service path
// at zero allocations with logging at error level and spans recording
// (they always record): applyBatch steps the batch, refreshes the listing
// mirrors, writes the engine-step span into the record store, feeds the
// session's latency history and gates the sampled debug line. It must
// allocate nothing with a sampled trace context, with an unsampled one,
// and after a durable checkpoint has used the session's encode buffer.
// The batch is empty so the engine itself contributes nothing and the
// measurement isolates the service layer.
func TestReplayChunkInstrumentationAllocFree(t *testing.T) {
	s, sess := newAllocTestSession(t, Config{
		Logger: obs.NewLogger(io.Discard, slog.LevelError, "text"),
	})
	ctx := context.Background()
	sampled := obs.TraceContext{TraceHi: 0xaaaa, TraceLo: 0xbbbb, SpanID: 1, Sampled: true}
	unsampled := obs.TraceContext{TraceHi: 0xcccc, TraceLo: 0xdddd, SpanID: 1}
	var batch []workload.Access
	apply := func(tc obs.TraceContext) func() {
		clk := &stageClock{spans: s.spans, id: sess.id, tc: tc, last: time.Now().UnixNano()}
		return func() {
			if n, err := s.applyBatch(ctx, sess, batch, clk); n != 0 || err != nil {
				t.Fatalf("stepped %d accesses of an empty batch: %v", n, err)
			}
		}
	}
	apply(sampled)() // warm up

	check := func(label string, tc obs.TraceContext) {
		t.Helper()
		if allocs := testing.AllocsPerRun(200, apply(tc)); allocs != 0 {
			t.Errorf("applyBatch allocates %.1f/op %s, want 0", allocs, label)
		}
	}
	check("with a sampled trace", sampled)
	check("with an unsampled trace", unsampled)

	// A durable checkpoint between batches must not perturb the batch
	// path: the encode buffer is session-owned and reused.
	s.cfg.SnapshotDir = t.TempDir()
	if err := s.checkpointSession(sess); err != nil {
		t.Fatal(err)
	}
	check("after a checkpoint", sampled)
}

// TestRecordChunkAllocFree pins the per-batch recording itself at zero
// allocations when the logger filters debug lines: the engine-step span
// the stage clock writes into the daemon's record store (so the store's
// ring is part of this path), the session's latency histogram and the
// sampled debug-line gate — the tail of applyBatch, without the engine.
func TestRecordChunkAllocFree(t *testing.T) {
	s, sess := newAllocTestSession(t, Config{
		Logger: obs.NewLogger(io.Discard, slog.LevelError, "text"),
	})
	tc := obs.TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 7, Sampled: true}
	clk := &stageClock{spans: s.spans, id: sess.id, tc: tc, last: time.Now().UnixNano()}
	allocs := testing.AllocsPerRun(500, func() {
		stepUS := uint64(clk.mark(stageEngine) / time.Microsecond)
		sess.chunkHist.Observe(stepUS)
		if sess.lg.Enabled(context.Background(), slog.LevelDebug) && sess.sampler.Allow() {
			t.Fatal("debug line enabled at error level")
		}
	})
	if allocs != 0 {
		t.Errorf("batch recording allocates %.1f/op with debug lines filtered, want 0", allocs)
	}
}
