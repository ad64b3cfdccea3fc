package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/sim"
	"rmcc/internal/snapshot"
)

// sessionKind tags rmccd session checkpoints: session metadata plus the
// full lifetime snapshot, one file per session.
const sessionKind = "rmccd-session"

// errCheckpointBusy marks a checkpoint skipped because a replay holds the
// session; the next periodic tick retries.
var errCheckpointBusy = errors.New("session busy")

// sessionMeta is the "meta" section of a session checkpoint: everything
// the daemon needs to rebuild the session object itself (the simulator
// state lives in the nested "lifetime" section). Config is the original
// create-request document, so recovery replays the exact create path.
type sessionMeta struct {
	ID        string        `json:"id"`
	Config    SessionConfig `json:"config"`
	Name      string        `json:"name"`
	Mode      string        `json:"mode"`
	Scheme    string        `json:"scheme"`
	Seed      uint64        `json:"seed"`
	Created   string        `json:"created"` // RFC 3339 UTC
	Footprint uint64        `json:"footprint_bytes"`
	// Pulled is the bound-generator resume cursor: how many accesses the
	// session had drawn from its deterministic stream when the checkpoint
	// was cut. A restored session recreates the stream and discards this
	// many before continuing.
	Pulled   uint64 `json:"pulled"`
	Accesses uint64 `json:"accesses"`
}

// writeSessionSnapshot encodes the complete checkpoint. The caller must
// hold the replay lease (it reads simulator state).
func writeSessionSnapshot(sess *session, w io.Writer) error {
	sw := snapshot.NewWriter(w, sessionKind, snapshot.HashString(sess.cfgHash))
	meta := sessionMeta{
		ID:        sess.id,
		Config:    sess.sc,
		Name:      sess.name,
		Mode:      sess.mode,
		Scheme:    sess.scheme,
		Seed:      sess.seed,
		Created:   sess.created.UTC().Format(time.RFC3339),
		Footprint: sess.footprint,
		Pulled:    sess.pulled,
		Accesses:  sess.lt.Accesses(),
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	sw.Section("meta", mb)
	var lb bytes.Buffer
	if err := sess.lt.Save(&lb); err != nil {
		return err
	}
	sw.Section("lifetime", lb.Bytes())
	return sw.Close()
}

// checkpointPath is the durable file for one session.
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.SnapshotDir, id+".snap")
}

// removeCheckpoint deletes a session's durable checkpoint (eviction,
// deletion). Best-effort: a missing file is the common case.
func (s *Server) removeCheckpoint(sess *session) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	_ = os.Remove(s.checkpointPath(sess.id))
	_ = os.Remove(s.checkpointPath(sess.id) + ".tmp")
}

// encodeCheckpoint fills sess.ckptBuf with the session's checkpoint and
// returns the access count it captured. The caller must hold the replay
// lease (the buffer and simulator are otherwise unguarded).
func encodeCheckpoint(sess *session) (accesses uint64, err error) {
	sess.ckptBuf.Reset()
	return sess.lt.Accesses(), writeSessionSnapshot(sess, &sess.ckptBuf)
}

// checkpointSession cuts one durable checkpoint: take the replay lease,
// encode, write tmp+rename so a crash never leaves a half-written file
// where a valid one stood. Returns errCheckpointBusy (not a failure) when
// a replay holds the session.
func (s *Server) checkpointSession(sess *session) error {
	ok, gone := sess.acquire()
	if !ok {
		if gone {
			return nil
		}
		return errCheckpointBusy
	}
	defer sess.release()
	start := time.Now()
	accesses, err := encodeCheckpoint(sess)
	if err == nil {
		err = snapshot.WriteFileDurable(s.checkpointPath(sess.id), sess.ckptBuf.Bytes())
	}
	if err != nil {
		s.mSnapshotFailWrite.Inc()
		sess.lg.Warn("checkpoint failed", "error", err)
		return err
	}
	size := uint64(sess.ckptBuf.Len())
	s.mSnapshots.Inc()
	s.mSnapshotDurationUS.Observe(uint64(time.Since(start).Microseconds()))
	s.mSnapshotBytes.Observe(size)
	sess.lastCkptNS.Store(s.cfg.Now().UnixNano())
	sess.lastCkptBytes.Store(size)
	sess.lastCkptAccesses.Store(accesses)
	return nil
}

// checkpointer periodically checkpoints every session that advanced since
// its last checkpoint, and fsyncs a file-backed flight recorder on the
// same cadence.
func (s *Server) checkpointer() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.checkpointDirty()
			if err := s.cfg.Flight.Sync(); err != nil {
				s.log.Warn("flight sync failed", "error", err)
			}
		case <-s.ckptStop:
			return
		}
	}
}

// checkpointDirty checkpoints sessions whose access count moved since the
// last checkpoint (or that never had one), returning how many were cut.
// Busy sessions are skipped; the next tick retries.
func (s *Server) checkpointDirty() int {
	n := 0
	for _, sess := range s.liveSessions() {
		if sess.lastCkptNS.Load() != 0 &&
			sess.accessesDone.Load() == sess.lastCkptAccesses.Load() {
			continue
		}
		if s.checkpointSession(sess) == nil {
			n++
		}
	}
	return n
}

// CheckpointAll cuts a final checkpoint of every live session — the drain
// path's last act before the process exits, so a clean shutdown is
// indistinguishable from a crash with perfectly fresh checkpoints. No-op
// without SnapshotDir. Returns how many checkpoints were written.
func (s *Server) CheckpointAll() int {
	if s.cfg.SnapshotDir == "" {
		return 0
	}
	n := 0
	for _, sess := range s.liveSessions() {
		if err := s.checkpointSession(sess); err != nil {
			sess.lg.Warn("final checkpoint skipped", "error", err)
			continue
		}
		n++
	}
	return n
}

func (s *Server) liveSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// --- restore ---

// decodeSessionMeta reads just the header and "meta" section — the part a
// truncated-tail checkpoint can still yield, enabling the fresh-session
// fallback — and returns the reader positioned after the meta section.
func decodeSessionMeta(data []byte) (sessionMeta, *snapshot.Reader, error) {
	sr, err := snapshot.NewReader(bytes.NewReader(data), sessionKind)
	if err != nil {
		return sessionMeta{}, nil, err
	}
	payload, err := sr.Section("meta")
	if err != nil {
		return sessionMeta{}, nil, err
	}
	var meta sessionMeta
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&meta); err != nil {
		return sessionMeta{}, nil, fmt.Errorf("%w: meta: %v", snapshot.ErrSnapshotCorrupt, err)
	}
	return meta, sr, nil
}

// configError marks a session config that does not resolve: a client
// error, like one wrapping engine.ErrInvalidConfig.
type configError struct{ error }

// buildSession constructs a session object from a create-request config —
// the shared tail of handleCreate, restore, and the fresh-session
// fallback. It does not register the session.
func (s *Server) buildSession(id string, sc SessionConfig, created time.Time) (*session, error) {
	res, err := sc.resolve()
	if err != nil {
		return nil, configError{err}
	}
	lt, err := sim.NewLifetimeChecked(res.name, res.footprint, res.ltCfg)
	if err != nil {
		return nil, err
	}
	sess := &session{
		id:        id,
		name:      res.name,
		mode:      defaultStr(sc.Mode, "rmcc"),
		scheme:    defaultStr(sc.Scheme, "morphable"),
		seed:      res.seed,
		created:   created,
		cfgHash:   obs.HashConfig(sc),
		sc:        sc,
		footprint: res.footprint,
		lt:        lt,
		w:         res.w,
		sampler:   obs.NewLogSampler(s.cfg.LogSampleEvery),
		chunkHist: obs.NewHistogram(obs.Pow2Buckets(1, 24)),
	}
	sess.lg = s.log.With("session", id, "workload", res.name, "seed", res.seed)
	return sess, nil
}

// restoreSession rebuilds a full session from checkpoint bytes: meta →
// identical create path → nested lifetime state → resume cursor. Errors
// are the typed snapshot taxonomy (config problems inside meta surface as
// ErrSnapshotConfigMismatch).
func (s *Server) restoreSession(data []byte) (*session, error) {
	meta, sr, err := decodeSessionMeta(data)
	if err != nil {
		return nil, err
	}
	if got, want := sr.ConfigHash(), snapshot.HashString(obs.HashConfig(meta.Config)); got != want {
		return nil, fmt.Errorf("%w: session config hash %016x, want %016x",
			snapshot.ErrSnapshotConfigMismatch, got, want)
	}
	// The restored ID becomes a checkpoint file name on this daemon; only
	// the strict daemon shape may come back from a blob.
	if !validSessionID(meta.ID) {
		return nil, fmt.Errorf("%w: invalid session id %q",
			snapshot.ErrSnapshotCorrupt, meta.ID)
	}
	created, err := time.Parse(time.RFC3339, meta.Created)
	if err != nil {
		created = s.cfg.Now()
	}
	sess, err := s.buildSession(meta.ID, meta.Config, created)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrSnapshotConfigMismatch, err)
	}
	ltPayload, err := sr.Section("lifetime")
	if err != nil {
		return nil, err
	}
	if err := sess.lt.Load(bytes.NewReader(ltPayload)); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	// The cursor is what the next checkpoint persists, and how far the
	// lazily rebuilt stream fast-forwards before serving new accesses.
	sess.pulled = meta.Pulled
	sess.accessesDone.Store(sess.lt.Accesses())
	// Nothing else owns the simulator yet; seed the listing mirrors so a
	// recovered session reports live rates before its first chunk.
	sess.storeRates(sess.lt.MC().Stats())
	return sess, nil
}

// register inserts a restored/recovered session, enforcing ID uniqueness
// and the session cap.
func (s *Server) register(sess *session, now time.Time) error {
	sess.touch(now)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.sessions[sess.id]; exists {
		return fmt.Errorf("session %q already exists", sess.id)
	}
	if len(s.sessions) >= maxSessions {
		return fmt.Errorf("session limit reached (%d)", maxSessions)
	}
	s.sessions[sess.id] = sess
	return nil
}

// recoverSessions scans SnapshotDir at startup and rehydrates every valid
// checkpoint. Files whose simulator state is unreadable but whose meta
// section survives fall back to a fresh session under the same ID (the
// client re-replays); files with no usable meta are skipped. Either way
// the daemon comes up — a corrupt checkpoint never blocks startup.
func (s *Server) recoverSessions() {
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		s.log.Error("snapshot dir unavailable", "dir", s.cfg.SnapshotDir, "error", err)
		return
	}
	paths, _ := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, "*.snap"))
	sort.Strings(paths)
	var maxID uint64
	for _, path := range paths {
		data, err := os.ReadFile(path)
		var sess *session
		if err == nil {
			sess, err = s.restoreSession(data)
		}
		if err != nil {
			s.mSnapshotFailLoad.Inc()
			meta, _, merr := decodeSessionMeta(data)
			if merr != nil {
				s.log.Warn("checkpoint unreadable, skipping",
					"file", filepath.Base(path), "error", err)
				continue
			}
			// The state is gone but the recipe survives: restart the
			// session from access zero under its original ID and config.
			sess, merr = s.buildSession(meta.ID, meta.Config, s.cfg.Now())
			if merr != nil {
				s.log.Warn("checkpoint fallback failed, skipping",
					"file", filepath.Base(path), "error", merr)
				continue
			}
			s.log.Warn("checkpoint state unreadable, recovered fresh session",
				"session", meta.ID, "error", err)
		}
		if rerr := s.register(sess, s.cfg.Now()); rerr != nil {
			s.log.Warn("recovered session not registered",
				"session", sess.id, "error", rerr)
			continue
		}
		if n, perr := parseSessionID(sess.id); perr == nil && n > maxID {
			maxID = n
		}
		s.mSessionsRecovered.Inc()
		sess.lg.Info("session recovered",
			"accesses", sess.accessesDone.Load(), "file", filepath.Base(path))
	}
	// New sessions must never collide with recovered IDs.
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
	}
}

// parseSessionID extracts the numeric suffix of a daemon-issued
// "s-%08x" session ID.
func parseSessionID(id string) (uint64, error) {
	hexPart, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return 0, fmt.Errorf("not a daemon session id: %q", id)
	}
	return strconv.ParseUint(hexPart, 16, 64)
}

// --- handlers ---

// handleCheckpoint (POST /v1/sessions/{id}/snapshot) cuts a state
// checkpoint on demand. With ?download=1 the encoded checkpoint streams
// back as the response body (feedable to POST /v1/sessions/restore on any
// daemon); otherwise it is written to SnapshotDir and the refreshed
// session info returned.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if r.URL.Query().Get("download") != "" {
		ok, gone := sess.acquire()
		if !ok {
			code, msg := http.StatusConflict, "session busy (replay in flight)"
			if gone {
				code, msg = http.StatusNotFound, "session evicted"
			}
			writeError(w, code, msg)
			return
		}
		defer sess.release()
		start := time.Now()
		if _, err := encodeCheckpoint(sess); err != nil {
			s.mSnapshotFailWrite.Inc()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.mSnapshots.Inc()
		s.mSnapshotDurationUS.Observe(uint64(time.Since(start).Microseconds()))
		s.mSnapshotBytes.Observe(uint64(sess.ckptBuf.Len()))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(sess.ckptBuf.Len()))
		_, _ = w.Write(sess.ckptBuf.Bytes())
		sess.touch(s.cfg.Now())
		return
	}
	if s.cfg.SnapshotDir == "" {
		writeError(w, http.StatusConflict,
			"daemon has no -snapshot-dir; use ?download=1 for an inline checkpoint")
		return
	}
	if err := s.checkpointSession(sess); err != nil {
		if errors.Is(err, errCheckpointBusy) {
			writeError(w, http.StatusConflict, "session busy (replay in flight)")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess.touch(s.cfg.Now())
	writeJSON(w, http.StatusOK, sess.info(sess.accessesDone.Load(), s.cfg.Now()))
}

// handleRestore (POST /v1/sessions/restore) creates a session from a
// checkpoint blob — the restore half of ?download=1 and the manual
// recovery path. Typed snapshot errors map to 422; an ID collision with a
// live session is 409.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSnapshotBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	sess, err := s.restoreSession(data)
	if err != nil {
		s.mSnapshotFailLoad.Inc()
		if errors.Is(err, snapshot.ErrSnapshotCorrupt) ||
			errors.Is(err, snapshot.ErrSnapshotVersion) ||
			errors.Is(err, snapshot.ErrSnapshotConfigMismatch) {
			writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	now := s.cfg.Now()
	if err := s.register(sess, now); err != nil {
		code := http.StatusConflict
		if strings.Contains(err.Error(), "limit") {
			code = http.StatusTooManyRequests
		}
		writeError(w, code, err.Error())
		return
	}
	// Restored IDs can come from another daemon; keep the ID counter ahead.
	s.advanceNextID(sess.id)
	s.mSessionsCreated.Inc()
	sess.lg.Info("session restored", "accesses", sess.accessesDone.Load())
	if s.cfg.SnapshotDir != "" {
		if err := s.checkpointSession(sess); err != nil {
			sess.lg.Warn("initial checkpoint failed", "error", err)
		}
	}
	writeJSON(w, http.StatusCreated, sess.info(sess.accessesDone.Load(), now))
}
