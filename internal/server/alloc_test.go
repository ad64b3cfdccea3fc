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

// TestReplayChunkInstrumentationAllocFree is the benchmark guard for the
// tentpole's zero-overhead constraint: with logging at error level and
// spans recording (they always record), applying a replay batch must
// allocate no more than the pre-instrumentation shard round-trip — one
// closure escape plus one completion channel plus the escaping result
// variables. The batch is empty so the engine itself contributes nothing
// and the measurement isolates the service-layer path.
func TestReplayChunkInstrumentationAllocFree(t *testing.T) {
	s, sess := newAllocTestSession(t, Config{
		Shards: 1,
		Logger: obs.NewLogger(io.Discard, slog.LevelError, "text"),
	})
	ctx := context.Background()
	// A full distributed trace context attached to the batch: the
	// tentpole's acceptance bar is that tracing adds zero allocations on
	// this path, sampled or not.
	sampled := obs.TraceContext{TraceHi: 0xaaaa, TraceLo: 0xbbbb, SpanID: 1, Sampled: true}
	unsampled := obs.TraceContext{TraceHi: 0xcccc, TraceLo: 0xdddd, SpanID: 1}
	var batch []workload.Access
	apply := func(tc obs.TraceContext) func() {
		return func() {
			if _, _, err := s.applyBatch(ctx, sess, batch, tc); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(sampled)() // warm up

	instrumented := testing.AllocsPerRun(200, apply(sampled))
	untraced := testing.AllocsPerRun(200, apply(unsampled))
	if untraced != instrumented {
		t.Errorf("unsampled trace context changes batch allocations: %.1f vs %.1f/op", untraced, instrumented)
	}

	// Control: the pre-instrumentation batch shape — same closure-captured
	// result variables, untimed pool round-trip, no spans, no histograms.
	control := testing.AllocsPerRun(200, func() {
		var stepped int
		var total uint64
		err := s.pool.do(ctx, sess.shard, func() {
			for _, a := range batch {
				sess.lt.Step(a)
				stepped++
			}
			total = sess.lt.Accesses()
		})
		if err != nil || stepped != 0 || total != 0 {
			t.Fatal("control path misbehaved")
		}
	})

	if instrumented > control {
		t.Errorf("instrumented batch path allocates %.1f/op, control %.1f/op — observability added allocations",
			instrumented, control)
	}
	t.Logf("allocs/op: instrumented=%.1f control=%.1f", instrumented, control)

	// A durable checkpoint between batches must not perturb the batch
	// path: the encode buffer is session-owned and reused, and nothing the
	// checkpoint allocates leaks into subsequent batch submissions.
	s.cfg.SnapshotDir = t.TempDir()
	if err := s.checkpointSession(ctx, sess); err != nil {
		t.Fatal(err)
	}
	afterCkpt := testing.AllocsPerRun(200, apply(sampled))
	if afterCkpt > control {
		t.Errorf("batch path allocates %.1f/op after a checkpoint, control %.1f/op",
			afterCkpt, control)
	}
	t.Logf("allocs/op after checkpoint: %.1f", afterCkpt)
}

// TestRecordChunkAllocFree pins the span/histogram/sampled-log recording
// itself at zero allocations when the logger filters debug lines. Every
// span lands in the daemon's record store, so the store's ring is part of
// this path.
func TestRecordChunkAllocFree(t *testing.T) {
	s, sess := newAllocTestSession(t, Config{
		Shards: 1,
		Logger: obs.NewLogger(io.Discard, slog.LevelError, "text"),
	})
	jt := jobTimes{startNS: 1_000, endNS: 51_000}
	tc := obs.TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 7, Sampled: true}
	allocs := testing.AllocsPerRun(500, func() {
		s.recordChunk(sess, tc, 0, jt, 4096)
	})
	if allocs != 0 {
		t.Errorf("recordChunk allocates %.1f/op with observability disabled, want 0", allocs)
	}
}
