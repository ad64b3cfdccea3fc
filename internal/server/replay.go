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
// stats. Two sources feed the same batch loop (replayBatches):
//
//   - ?workload=&accesses=N — the session's bound generator, read in
//     ChunkAccesses-long batches (the daemon analog of rmccsim -accesses).
//   - Binary request body (Content-Type: application/x-rmcc-trace) —
//     length-prefixed RMTR frames, one batch per frame: an rmcc-trace file
//     minus its header.
//
// Any other request is refused with 415 before the session is touched.
//
// ?progress=N streams NDJSON progress frames every N applied accesses and
// finishes with a result (or error) frame; without it the response is one
// JSON ReplayStats document. Cancellation is chunk-granular: a dropped
// client connection or the shutdown drain deadline aborts mid-stream.
//
// The handler goroutine holds the session's replay lease for the whole
// replay and steps the engine itself. Every replay runs under a span
// parented to the request span, and a stageClock times its stages back
// to back under it: each batch read is a decode span, each applied batch
// an engine-step span, the closing stats roll-up a rollup span, and each
// written progress/result frame an encode span — together they tile the
// replay span. The per-batch path stays allocation-free: stage recording
// is ring writes plus atomic histogram adds, and the sampled debug log
// line is gated on Enabled before its arguments exist.
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
		if accesses > maxReplayAccesses {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("accesses %d exceeds the per-replay cap %d", accesses, maxReplayAccesses))
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

	clk := &stageClock{spans: s.spans, id: sess.id, tc: rtc, last: rsp.Start()}
	rw := &replayWriter{w: w, every: progressEvery}
	start := time.Now()
	var applied uint64
	var err error
	if useWorkload {
		s.mReplaysWorkload.Inc()
		g := &generator{sess: sess, n: accesses, chunk: uint64(s.cfg.ChunkAccesses)}
		applied, err = s.replayBatches(ctx, sess, g, rw, clk)
		g.settle(applied)
	} else {
		s.mReplaysBinary.Inc()
		body := &countingReader{r: r.Body}
		applied, err = s.replayBatches(ctx, sess, trace.NewFrameReader(body), rw, clk)
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
			rw.fail(http.StatusBadRequest, fmt.Sprintf("%v (%d accesses applied)", err, applied))
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

	res := sess.lt.Counters()
	clk.mark(stageRollup)
	s.mReplaysOK.Inc()
	stats := statsFromResult(sess.id, sess.seed, res)
	stats.WallSeconds = time.Since(start).Seconds()
	rw.result(stats)
	clk.mark(stageEncode)
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

// stageClock times a replay's stages back to back on the handler
// goroutine: mark records a stage span from the previous mark (the replay
// span's start, for the first) to now, parented to the replay span. So
// the stages tile the replay span, and time spent between two stages —
// a descheduled handler, say — lands in the next stage instead of
// falling between spans.
type stageClock struct {
	spans *obs.SpanTracer
	id    string           // session ID, the spans' detail
	tc    obs.TraceContext // the replay span's trace context
	last  int64            // Unix nanos of the previous mark
}

// mark records stage as ending now and returns its duration.
func (c *stageClock) mark(stage string) time.Duration {
	now := time.Now().UnixNano()
	d := time.Duration(now - c.last)
	c.spans.RecordT(stage, c.id, c.tc.SpanID, c.tc, c.last, d)
	c.last = now
	return d
}

// batchReader is a replay source: it fills dst's backing array with the
// next batch and returns it, or io.EOF at the clean end of the stream.
// *trace.FrameReader reads upload bodies; *generator reads the session's
// bound workload.
type batchReader interface {
	DecodeInto(dst []workload.Access) ([]workload.Access, error)
}

// replayBatches is the one apply loop: read a batch from src into the
// reused slice (a decode stage, which covers the body read or the
// generator pulls), apply it, account, emit progress. Only a validated
// batch reaches the engine, so malformed input can never panic a step.
// Because each batch is applied before the next is read, a slow
// simulation backpressures an upload through the unread TCP window, and
// steady state allocates nothing per access or per batch. The caller
// holds the session's replay lease.
func (s *Server) replayBatches(ctx context.Context, sess *session, src batchReader, rw *replayWriter, clk *stageClock) (uint64, error) {
	batch := make([]workload.Access, 0, s.cfg.ChunkAccesses)
	var applied uint64
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		var err error
		batch, err = src.DecodeInto(batch)
		clk.mark(stageDecode)
		switch {
		case err == io.EOF:
			return applied, nil
		case errors.Is(err, trace.ErrFrameCorrupt), errors.Is(err, trace.ErrFrameTooLarge):
			return applied, &inputError{fmt.Errorf("frame %d: %w", n, err)}
		case err != nil:
			return applied, err
		}
		stepped, stepErr := s.applyBatch(ctx, sess, batch, clk)
		applied += uint64(stepped)
		sess.touch(s.cfg.Now())
		if stepErr != nil {
			// The stream outgrew the session's physical memory; the
			// step that found it changed nothing.
			return applied, &inputError{fmt.Errorf("frame %d: %w", n, stepErr)}
		}
		// A progress frame is an encode stage; without one, the time
		// rolls into the next decode.
		wrote, err := rw.progress(applied)
		if wrote {
			clk.mark(stageEncode)
		}
		if err != nil {
			return applied, err
		}
		if stepped < len(batch) {
			// applyBatch stopped mid-batch without a step error: only
			// cancellation does that, and context errors are sticky.
			return applied, ctx.Err()
		}
	}
}

// generator reads a workload replay's batches from the session's bound
// stream, which persists across replays so successive ones continue one
// deterministic stream. It runs on the handler goroutine under the
// replay lease, which is what guards sess.stream and sess.pulled.
type generator struct {
	sess  *session
	n     uint64 // accesses this replay asks for
	chunk uint64
	read  uint64 // accesses read so far
}

// DecodeInto implements batchReader. A missing stream is built at the
// session's cursor: the stream is a pure function of (workload, seed),
// so skipping pulled accesses resumes it exactly, after a restore or a
// cancelled replay alike.
func (g *generator) DecodeInto(dst []workload.Access) ([]workload.Access, error) {
	dst = dst[:0]
	sess := g.sess
	if sess.stream == nil {
		w, seed := sess.w, sess.seed
		sess.stream = sim.NewAccessStream(func(sink workload.Sink) { w.Run(seed, sink) })
		for skip := sess.pulled; skip > 0; skip-- {
			sess.stream.Next()
		}
	}
	for uint64(len(dst)) < min(g.n-g.read, g.chunk) {
		a, ok := sess.stream.Next()
		if !ok {
			break
		}
		dst = append(dst, a)
	}
	if len(dst) == 0 {
		return dst, io.EOF
	}
	g.read += uint64(len(dst))
	return dst, nil
}

// settle advances the session's cursor by the accesses the replay
// applied. A replay cut off mid-batch read more than it applied, so the
// stream is closed: the next replay rebuilds it at the cursor.
func (g *generator) settle(applied uint64) {
	g.sess.pulled += applied
	if applied < g.read {
		g.sess.stream.Close()
		g.sess.stream = nil
	}
}

// applyBatch steps one batch through the session's engine and returns
// how many accesses it stepped: cancellation or a step error mid-batch
// leaves fewer than len(batch), and the step error is returned. It
// refreshes the listing mirrors, records the engine-step stage on clk,
// feeds the session's latency history and (sampled, debug level only)
// logs the batch. The caller holds the replay lease. This is
// THE hot service-layer path, one call per batch, and it allocates
// nothing (TestReplayChunkInstrumentationAllocFree).
func (s *Server) applyBatch(ctx context.Context, sess *session, batch []workload.Access, clk *stageClock) (stepped int, err error) {
	for _, a := range batch {
		if stepped%512 == 511 && ctx.Err() != nil {
			break
		}
		if err = sess.lt.Step(a); err != nil {
			break
		}
		stepped++
	}
	sess.accessesDone.Store(sess.lt.Accesses())
	sess.storeRates(sess.lt.MC().Stats())
	stepUS := uint64(clk.mark(stageEngine) / time.Microsecond)
	sess.chunkHist.Observe(stepUS)
	if sess.lg.Enabled(context.Background(), slog.LevelDebug) && sess.sampler.Allow() {
		sess.lg.Debug("chunk applied", "accesses", stepped, "engine_step_us", stepUS)
	}
	return stepped, err
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
