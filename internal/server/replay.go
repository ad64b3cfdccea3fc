package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/sim"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

// Replay content types.
const (
	// ContentTypeBinaryReplay is the one replay request body: the
	// length-prefixed RMTR frame stream (see internal/trace frame.go and
	// docs/SERVICE.md).
	ContentTypeBinaryReplay = "application/x-rmcc-trace"
	// ContentTypeNDJSON is the ?progress=N response frame stream.
	ContentTypeNDJSON = "application/x-ndjson"
)

// handleReplay applies an access stream to a session and returns rolled-up
// stats. Two sources:
//
//   - ?workload=&accesses=N — run the session's bound generator for N
//     accesses server-side (the daemon analog of rmccsim -accesses).
//   - Binary request body (Content-Type: application/x-rmcc-trace) —
//     length-prefixed RMTR frames, decoded frame-at-a-time into a reused
//     batch with zero per-access allocations (replayStream).
//
// Any other request is refused with 415 before the session is touched.
//
// ?progress=N streams NDJSON progress frames every N applied accesses and
// finishes with a result (or error) frame; without it the response is one
// JSON ReplayStats document. Cancellation is chunk-granular: a dropped
// client connection or the shutdown drain deadline aborts mid-stream.
//
// Every replay runs under a span parented to the request span; each
// applied chunk records queue-wait and engine-step stage spans (from the
// shard pool's worker timestamps), each body frame read a decode span,
// the closing stats roll-up a rollup span, and each written
// progress/result frame an encode span — together they account for the
// request's time. The per-chunk path stays allocation-free: stage
// recording is ring writes plus atomic histogram adds, and the sampled
// debug log line is gated on Enabled before its arguments exist.
//
// The roll-up reads only the session's running counters
// (sim.Lifetime.Counters): Figure 15's coverage scan over every data
// counter is not part of ReplayStats, so no response pays for it.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	q := r.URL.Query()
	useWorkload := q.Has("workload") || q.Has("accesses")
	var accesses uint64
	if useWorkload {
		var err error
		accesses, err = parseUint(q.Get("accesses"))
		if err != nil || accesses == 0 {
			writeError(w, http.StatusBadRequest, "accesses must be a positive integer")
			return
		}
		if accesses > s.cfg.MaxReplayAccesses {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("accesses %d exceeds the per-replay cap %d", accesses, s.cfg.MaxReplayAccesses))
			return
		}
		if sess.w == nil {
			writeError(w, http.StatusBadRequest,
				"session has no bound workload; create it with \"workload\" or stream accesses")
			return
		}
		if name := q.Get("workload"); name != "" && name != sess.w.Name() {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("session is bound to workload %q, not %q", sess.w.Name(), name))
			return
		}
	}
	var progressEvery uint64
	if p := q.Get("progress"); p != "" {
		var err error
		if progressEvery, err = parseUint(p); err != nil {
			writeError(w, http.StatusBadRequest, "progress must be a non-negative integer")
			return
		}
	}
	if !useWorkload && !isBinaryReplay(r.Header.Get("Content-Type")) {
		writeError(w, http.StatusUnsupportedMediaType,
			"replay body must be Content-Type: "+ContentTypeBinaryReplay+
				" (RMTR frames); convert NDJSON traces with rmcc-trace -encode")
		return
	}

	ok, gone := sess.acquire()
	if !ok {
		code, msg := http.StatusConflict, "replay already in flight on this session"
		if gone {
			code, msg = http.StatusNotFound, "session evicted"
		}
		writeError(w, code, msg)
		return
	}
	defer sess.release()

	// Join the request context with the server-wide force-cancel so the
	// drain deadline aborts long replays.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.forceCtx, cancel)
	defer stop()

	lc := traceCtx(r.Context())
	rsp := s.spans.StartT("replay", sess.id, lc.SpanID, lc)
	// rtc is the trace context for everything under the replay span.
	rtc := lc
	rtc.SpanID = rsp.ID()
	defer rsp.End()

	rw := &replayWriter{w: w, every: progressEvery}
	start := time.Now()
	var applied uint64
	var err error
	if useWorkload {
		s.mReplaysWorkload.Inc()
		applied, err = s.replayWorkload(ctx, sess, accesses, rw, rtc)
	} else {
		s.mReplaysBinary.Inc()
		body := &countingReader{r: r.Body}
		applied, err = s.replayStream(ctx, sess, trace.NewFrameReader(body), rw, rtc)
		s.mReplayBytes.Add(body.n)
	}
	s.mReplayAccesses.Add(applied)
	s.mReplaySizes.Observe(applied)
	sess.touch(s.cfg.Now())

	if err != nil {
		var badInput *inputError
		switch {
		case errors.As(err, &badInput):
			s.mReplaysErr.Inc()
			sess.lg.Warn("replay rejected", "applied", applied, "error", err)
			rw.fail(http.StatusBadRequest, err.Error())
		case ctx.Err() != nil:
			s.mReplaysCancel.Inc()
			reason := "replay cancelled"
			if s.forceCtx.Err() != nil {
				reason = "replay aborted: drain deadline expired"
			}
			sess.lg.Info("replay cancelled", "applied", applied, "reason", reason)
			rw.fail(http.StatusServiceUnavailable, reason)
		default:
			s.mReplaysErr.Inc()
			sess.lg.Error("replay failed", "applied", applied, "error", err)
			rw.fail(http.StatusInternalServerError, err.Error())
		}
		return
	}

	var res sim.LifetimeResult
	rollStart := time.Now()
	perr := s.pool.do(ctx, sess.shard, func() { res = sess.lt.Counters() })
	s.spans.RecordT(stageRollup, sess.id, rtc.SpanID, rtc, rollStart.UnixNano(), time.Since(rollStart))
	if perr != nil {
		s.mReplaysCancel.Inc()
		sess.lg.Info("replay cancelled", "applied", applied, "reason", "cancelled before stats rollup")
		rw.fail(http.StatusServiceUnavailable, "replay cancelled before stats rollup")
		return
	}
	s.mReplaysOK.Inc()
	stats := statsFromResult(sess.id, sess.seed, res)
	stats.WallSeconds = time.Since(start).Seconds()
	encStart := time.Now()
	rw.result(stats)
	s.spans.RecordT(stageEncode, sess.id, rtc.SpanID, rtc, encStart.UnixNano(), time.Since(encStart))
	sess.lg.Info("replay complete", "accesses", applied,
		"total_accesses", res.Accesses, "wall_seconds", stats.WallSeconds)
}

// isBinaryReplay matches the binary replay content type, ignoring media
// parameters (";charset=..." etc.).
func isBinaryReplay(contentType string) bool {
	mediaType, _, _ := strings.Cut(contentType, ";")
	return strings.TrimSpace(mediaType) == ContentTypeBinaryReplay
}

// countingReader counts bytes drawn from a replay body for the
// rmccd_replay_bytes_total counter. The count is added once at request
// end, keeping the per-read path a plain integer add.
type countingReader struct {
	r io.Reader
	n uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += uint64(n)
	return n, err
}

// applyWorkloadChunk runs fn-equivalent chunk work on the session's shard
// and records its queue-wait and engine-step stage spans under the trace
// context's span.
// This is THE hot service-layer path — one call per ChunkAccesses — and
// its per-call allocations are capped at the untimed PR-4 profile (one
// closure + one completion channel), enforced by
// TestReplayChunkInstrumentationAllocFree.
func (s *Server) applyWorkloadChunk(ctx context.Context, sess *session, want uint64, tc obs.TraceContext) (got, total uint64, exhausted bool, err error) {
	s.mEnqueueDepth.Observe(uint64(s.pool.queueLen(sess.shard)))
	submit := time.Now().UnixNano()
	jt, err := s.pool.doTimed(ctx, sess.shard, func() {
		if sess.stream == nil {
			w, seed := sess.w, sess.seed
			sess.stream = sim.NewAccessStream(func(sink workload.Sink) { w.Run(seed, sink) })
			// Restored session: the stream is a pure function of
			// (workload, seed), so fast-forward past the accesses the
			// pre-crash incarnation already consumed. A local counter, not
			// sess.pulled: the restore path already set pulled to the
			// checkpointed cursor so checkpoints cut before this point
			// persist it, and advancing it here would double-count.
			for skip := sess.skipPulled; skip > 0; skip-- {
				if _, ok := sess.stream.Next(); !ok {
					exhausted = true
					break
				}
			}
		}
		for got < want {
			if got%512 == 511 && ctx.Err() != nil {
				break
			}
			a, ok := sess.stream.Next()
			if !ok {
				exhausted = true
				break
			}
			sess.lt.Step(a)
			got++
		}
		sess.pulled += got
		total = sess.lt.Accesses()
		// Refresh the lock-free rate mirrors on the shard goroutine (the
		// only place engine state may be read). Capturing a stats struct
		// into the submitter's frame instead would add an escaping heap
		// variable per chunk; the atomic stores keep the path alloc-free.
		sess.storeRates(sess.lt.MC().Stats())
	})
	if err != nil {
		return got, total, exhausted, err
	}
	s.recordChunk(sess, tc, submit, jt, got)
	return got, total, exhausted, nil
}

// recordChunk emits the queue-wait and engine-step stage spans for one
// applied chunk, feeds the session's latency history, and (sampled, debug
// level only) logs the chunk. Allocation-free when the logger is disabled
// or filtered.
func (s *Server) recordChunk(sess *session, tc obs.TraceContext, submitNS int64, jt jobTimes, got uint64) {
	s.spans.RecordT(stageQueueWait, sess.id, tc.SpanID, tc, submitNS, time.Duration(jt.startNS-submitNS))
	s.spans.RecordT(stageEngine, sess.id, tc.SpanID, tc, jt.startNS, time.Duration(jt.endNS-jt.startNS))
	stepUS := uint64(jt.endNS-jt.startNS) / 1e3
	sess.chunkHist.Observe(stepUS)
	if sess.lg.Enabled(context.Background(), slog.LevelDebug) && sess.sampler.Allow() {
		sess.lg.Debug("chunk applied", "accesses", got, "engine_step_us", stepUS,
			"queue_wait_us", uint64(jt.startNS-submitNS)/1e3)
	}
}

// replayWorkload steps the bound generator for n accesses in shard-owned
// chunks.
func (s *Server) replayWorkload(ctx context.Context, sess *session, n uint64, rw *replayWriter, tc obs.TraceContext) (uint64, error) {
	var applied uint64
	for applied < n {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		want := uint64(s.cfg.ChunkAccesses)
		if rem := n - applied; rem < want {
			want = rem
		}
		got, total, exhausted, err := s.applyWorkloadChunk(ctx, sess, want, tc)
		if err != nil {
			return applied, err
		}
		applied += got
		sess.accessesDone.Store(total)
		sess.touch(s.cfg.Now())
		if err := s.emitProgress(rw, sess, tc, applied); err != nil {
			return applied, err
		}
		if exhausted {
			break
		}
	}
	return applied, nil
}

// emitProgress forwards to the replay writer and wraps any written frame
// in an encode stage span. The no-frame case (threshold not crossed, or
// no ?progress at all) costs two time reads and no allocation.
func (s *Server) emitProgress(rw *replayWriter, sess *session, tc obs.TraceContext, applied uint64) error {
	start := time.Now()
	wrote, err := rw.progress(applied)
	if wrote {
		s.spans.RecordT(stageEncode, sess.id, tc.SpanID, tc, start.UnixNano(), time.Since(start))
	}
	return err
}

// replayStream is the apply loop for a binary body: decode one RMTR
// frame into the reused batch (under a decode span, which covers the body
// read as well), apply it on the session's shard, account, emit
// progress. Each frame is one batch — the sender's framing decides the
// apply granularity (capped at trace.MaxFrameAccesses) — and the
// decode reuses the batch plus the reader's payload buffer, so steady
// state allocates nothing per access or per frame. Decoding happens on
// the handler goroutine; only a validated batch crosses into the shard,
// so malformed input can never panic a worker. Because each batch is
// applied before the next frame is read, a slow simulation backpressures
// the upload through the unread TCP window.
func (s *Server) replayStream(ctx context.Context, sess *session, fr *trace.FrameReader, rw *replayWriter, tc obs.TraceContext) (uint64, error) {
	batch := make([]workload.Access, 0, s.cfg.ChunkAccesses)
	var applied uint64
	for frame := 1; ; frame++ {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		start := time.Now()
		var err error
		batch, err = fr.DecodeInto(batch)
		s.spans.RecordT(stageDecode, sess.id, tc.SpanID, tc, start.UnixNano(), time.Since(start))
		switch {
		case err == io.EOF:
			return applied, nil
		case errors.Is(err, trace.ErrFrameCorrupt), errors.Is(err, trace.ErrFrameTooLarge):
			return applied, &inputError{fmt.Errorf("frame %d: %w", frame, err)}
		case err != nil:
			return applied, err
		}
		stepped, total, err := s.applyBatch(ctx, sess, batch, tc)
		applied += uint64(stepped)
		if err != nil {
			return applied, err
		}
		sess.accessesDone.Store(total)
		sess.touch(s.cfg.Now())
		if err := s.emitProgress(rw, sess, tc, applied); err != nil {
			return applied, err
		}
		if stepped < len(batch) {
			// The shard worker stopped mid-batch: only cancellation
			// does that, and context errors are sticky.
			return applied, ctx.Err()
		}
	}
}

// applyBatch steps one decoded batch on the session's shard and records
// its stage spans. The shard closure reports how many accesses it
// stepped through the captured counter — cancellation mid-batch leaves
// stepped < len(batch) — rather than mutating the caller's slice, so
// the apply loop's accounting never depends on cross-goroutine slice
// surgery.
func (s *Server) applyBatch(ctx context.Context, sess *session, batch []workload.Access, tc obs.TraceContext) (stepped int, total uint64, err error) {
	s.mEnqueueDepth.Observe(uint64(s.pool.queueLen(sess.shard)))
	submit := time.Now().UnixNano()
	jt, err := s.pool.doTimed(ctx, sess.shard, func() {
		for _, a := range batch {
			if stepped%512 == 511 && ctx.Err() != nil {
				break
			}
			sess.lt.Step(a)
			stepped++
		}
		total = sess.lt.Accesses()
		sess.storeRates(sess.lt.MC().Stats())
	})
	if err != nil {
		return 0, 0, err
	}
	s.recordChunk(sess, tc, submit, jt, uint64(stepped))
	return stepped, total, nil
}

// inputError marks client-side (4xx) replay failures.
type inputError struct{ err error }

func (e *inputError) Error() string { return e.err.Error() }
func (e *inputError) Unwrap() error { return e.err }

// replayWriter renders the replay response: buffered single-document JSON
// by default, or an NDJSON frame stream when progress is requested (the
// status line is committed at the first frame, so later failures become
// error frames instead).
type replayWriter struct {
	w         http.ResponseWriter
	every     uint64
	streaming bool
	nextAt    uint64
}

func (rw *replayWriter) startStream() {
	if rw.streaming {
		return
	}
	rw.streaming = true
	rw.w.Header().Set("Content-Type", ContentTypeNDJSON)
	rw.w.WriteHeader(http.StatusOK)
}

func (rw *replayWriter) writeFrame(f ReplayFrame) error {
	rw.startStream()
	if err := writeNDJSONLine(rw.w, f); err != nil {
		return err
	}
	if fl, ok := rw.w.(http.Flusher); ok {
		fl.Flush()
	}
	return nil
}

// progress emits a frame when the applied count crosses the next
// threshold; a no-op without ?progress. wrote reports whether a frame
// actually went out (so callers attribute encode time only to real
// frames).
func (rw *replayWriter) progress(applied uint64) (wrote bool, err error) {
	if rw.every == 0 {
		return false, nil
	}
	if rw.nextAt == 0 {
		rw.nextAt = rw.every
	}
	if applied < rw.nextAt {
		return false, nil
	}
	rw.nextAt = applied + rw.every
	return true, rw.writeFrame(ReplayFrame{Type: "progress", Accesses: applied})
}

func (rw *replayWriter) result(stats ReplayStats) {
	if rw.every == 0 {
		writeJSON(rw.w, http.StatusOK, stats)
		return
	}
	_ = rw.writeFrame(ReplayFrame{Type: "result", Accesses: stats.Accesses, Stats: &stats})
}

func (rw *replayWriter) fail(code int, msg string) {
	if !rw.streaming {
		writeError(rw.w, code, msg)
		return
	}
	_ = rw.writeFrame(ReplayFrame{Type: "error", Error: msg})
}

func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(s, 10, 64)
}

// writeNDJSONLine marshals v and appends a newline.
func writeNDJSONLine(w http.ResponseWriter, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
