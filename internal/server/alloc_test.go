package server

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/sim"
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
// spans recording (they always record), submitting a replay chunk must
// allocate no more than the pre-instrumentation shard round-trip — one
// closure escape plus one completion channel plus the escaping result
// variables. The chunk size is 0 so the engine itself contributes nothing
// and the measurement isolates the service-layer path.
func TestReplayChunkInstrumentationAllocFree(t *testing.T) {
	s, sess := newAllocTestSession(t, Config{
		Shards: 1,
		Logger: obs.NewLogger(io.Discard, slog.LevelError, "text"),
	})
	ctx := context.Background()
	// A full distributed trace context attached to the chunk: the
	// tentpole's acceptance bar is that tracing adds zero allocations on
	// this path, sampled or not.
	sampled := obs.TraceContext{TraceHi: 0xaaaa, TraceLo: 0xbbbb, SpanID: 1, Sampled: true}
	unsampled := obs.TraceContext{TraceHi: 0xcccc, TraceLo: 0xdddd, SpanID: 1}

	// Warm up: first chunk lazily creates the access stream.
	if _, _, _, err := s.applyWorkloadChunk(ctx, sess, 0, sampled); err != nil {
		t.Fatal(err)
	}

	instrumented := testing.AllocsPerRun(200, func() {
		if _, _, _, err := s.applyWorkloadChunk(ctx, sess, 0, sampled); err != nil {
			t.Fatal(err)
		}
	})
	untraced := testing.AllocsPerRun(200, func() {
		if _, _, _, err := s.applyWorkloadChunk(ctx, sess, 0, unsampled); err != nil {
			t.Fatal(err)
		}
	})
	if untraced != instrumented {
		t.Errorf("unsampled trace context changes chunk allocations: %.1f vs %.1f/op", untraced, instrumented)
	}

	// Control: the pre-instrumentation chunk shape — same closure-captured
	// result variables, untimed pool round-trip, no spans, no histograms.
	control := testing.AllocsPerRun(200, func() {
		var want, got, total uint64
		var exhausted bool
		err := s.pool.do(ctx, sess.shard, func() {
			if sess.stream == nil {
				w, seed := sess.w, sess.seed
				sess.stream = sim.NewAccessStream(func(sink workload.Sink) { w.Run(seed, sink) })
			}
			for got < want {
				a, ok := sess.stream.Next()
				if !ok {
					exhausted = true
					break
				}
				sess.lt.Step(a)
				got++
			}
			total = sess.lt.Accesses()
		})
		if err != nil || exhausted || got != total {
			t.Fatal("control path misbehaved")
		}
	})

	if instrumented > control {
		t.Errorf("instrumented chunk path allocates %.1f/op, control %.1f/op — observability added allocations",
			instrumented, control)
	}
	t.Logf("allocs/op: instrumented=%.1f control=%.1f", instrumented, control)

	// A durable checkpoint between chunks must not perturb the chunk path:
	// the encode buffer is session-owned and reused, the resume-cursor
	// bookkeeping is two shard-owned uint64s, and nothing the checkpoint
	// allocates leaks into subsequent chunk submissions.
	s.cfg.SnapshotDir = t.TempDir()
	if err := s.checkpointSession(ctx, sess); err != nil {
		t.Fatal(err)
	}
	afterCkpt := testing.AllocsPerRun(200, func() {
		if _, _, _, err := s.applyWorkloadChunk(ctx, sess, 0, sampled); err != nil {
			t.Fatal(err)
		}
	})
	if afterCkpt > control {
		t.Errorf("chunk path allocates %.1f/op after a checkpoint, control %.1f/op",
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
