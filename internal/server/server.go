package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/engine"

	// Register the sidechannel adversary workloads (ppSweep, memjam4k) so
	// every rmccd session and rmcc-loadgen shortcut can resolve them by
	// name like any paper benchmark.
	_ "rmcc/internal/sidechan"
)

// Service caps. The router applies the same body caps.
const (
	// maxSessions caps live sessions; creates beyond it get 429.
	maxSessions = 1024
	// maxReplayAccesses caps the workload-shortcut accesses parameter.
	maxReplayAccesses = 1_000_000_000
	// MaxBodyBytes caps a session-config document.
	MaxBodyBytes = 1 << 20
	// MaxSnapshotBytes caps a POST /v1/sessions/restore body.
	MaxSnapshotBytes = 256 << 20
)

// Config parameterizes the daemon. The zero value is usable: every field
// has a production default.
type Config struct {
	// IdleTTL evicts sessions untouched for this long (default 10m;
	// negative disables eviction).
	IdleTTL time.Duration
	// ChunkAccesses is the generator batch a workload replay steps
	// before it reads the next one — the granularity of progress and
	// cancellation (default 4096). Uploads step one frame at a time.
	ChunkAccesses int

	// SnapshotDir, when set, makes sessions crash-recoverable: each live
	// session is periodically checkpointed to <dir>/<id>.snap, the drain
	// path cuts a final checkpoint of every session, and New rehydrates
	// sessions from the newest valid checkpoints on startup. Empty (the
	// default) disables all durable-checkpoint machinery.
	SnapshotDir string
	// SnapshotEvery is the periodic checkpoint interval (default 30s;
	// only meaningful with SnapshotDir).
	SnapshotEvery time.Duration

	// Now is the clock, injectable for TTL tests (default time.Now).
	Now func() time.Time
	// Logger receives structured operational logs (default
	// obs.DiscardLogger, which writes nothing).
	Logger *slog.Logger
	// LogSampleEvery admits one per-chunk debug log line in every N
	// (default 64); chunk lines only exist at -log-level debug.
	LogSampleEvery uint64
	// NodeID stamps this daemon's spans in /debug/tracez output so
	// cluster-wide fan-out merges attribute every row (default
	// "rmccd"; rmccd sets it to -node-id or the resolved listen address).
	NodeID string
	// Flight is the daemon's one record store: every completed span (and,
	// via the logger attachment done by the caller, warn+ log lines) lands
	// in this ring, which /debug/tracez reads and /debug/flightz dumps.
	// Spans are always recorded — completing one is allocation-free — so
	// the store is never disabled, only sized (default: an
	// obs.DefaultFlightCap ring tagged NodeID). With SnapshotDir set, each
	// checkpoint tick also Syncs it, which fsyncs a recorder from
	// obs.OpenFlightFile.
	Flight *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.IdleTTL == 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.ChunkAccesses <= 0 {
		c.ChunkAccesses = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	if c.LogSampleEvery == 0 {
		c.LogSampleEvery = 64
	}
	if c.NodeID == "" {
		c.NodeID = "rmccd"
	}
	if c.Flight == nil {
		c.Flight = obs.NewFlightRecorder(0, c.NodeID)
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	return c
}

// Server is the rmccd HTTP service. Create with New, serve via
// ServeHTTP/Handler, stop with BeginDrain + Close (see cmd/rmccd for the
// full graceful-shutdown sequence).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	reg     *obs.Registry
	log     *slog.Logger
	spans   *obs.SpanTracer
	started time.Time

	mu       sync.Mutex
	sessions map[string]*session
	nextID   atomic.Uint64

	draining atomic.Bool
	// forceCtx cancels every in-flight replay when the drain deadline
	// expires.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	janitorStop chan struct{}
	janitorDone chan struct{}

	// Periodic checkpointer lifecycle (nil channels when SnapshotDir is
	// unset — no goroutine runs).
	ckptStop chan struct{}
	ckptDone chan struct{}

	// metrics (owned instruments; exported at /metrics).
	mSessionsCreated *obs.Counter
	mEvictedTTL      *obs.Counter
	mEvictedAPI      *obs.Counter
	mReplaysOK       *obs.Counter
	mReplaysErr      *obs.Counter
	mReplaysCancel   *obs.Counter
	mReplayAccesses  *obs.Counter
	mReplaySizes     *obs.Histogram
	// Per-wire replay traffic: requests by source (workload shortcut or
	// binary frames) and body bytes read on the binary wire.
	mReplaysWorkload *obs.Counter
	mReplaysBinary   *obs.Counter
	mReplayBytes     *obs.Counter

	// Durable-checkpoint metrics.
	mSnapshots          *obs.Counter
	mSnapshotFailWrite  *obs.Counter
	mSnapshotFailLoad   *obs.Counter
	mSessionsRecovered  *obs.Counter
	mSnapshotDurationUS *obs.Histogram
	mSnapshotBytes      *obs.Histogram
}

// New builds a server and starts its TTL janitor (and, with SnapshotDir,
// its checkpointer).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		log:         cfg.Logger,
		spans:       obs.NewSpanTracerOn(cfg.Flight),
		started:     cfg.Now(),
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	s.initMetrics()
	s.initRoutes()
	if cfg.SnapshotDir != "" {
		// Rehydrate crashed sessions before any request can race a create,
		// then start the periodic checkpointer.
		s.recoverSessions()
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointer()
	}
	go s.janitor()
	return s
}

// Span stage names (the "stage" label on rmccd_replay_stage_duration_us).
const (
	stageDecode = "decode"
	stageEngine = "engine-step"
	stageRollup = "rollup"
	stageEncode = "encode"
)

func (s *Server) initMetrics() {
	s.reg = obs.NewRegistry()
	s.mSessionsCreated = s.reg.Counter("rmccd_sessions_created_total",
		"sessions created over the daemon lifetime")
	s.mEvictedTTL = s.reg.Counter("rmccd_sessions_evicted_total",
		"sessions evicted, by reason", obs.L("reason", "ttl"))
	s.mEvictedAPI = s.reg.Counter("rmccd_sessions_evicted_total", "",
		obs.L("reason", "api"))
	s.mReplaysOK = s.reg.Counter("rmccd_replays_total",
		"replay requests, by outcome", obs.L("status", "ok"))
	s.mReplaysErr = s.reg.Counter("rmccd_replays_total", "", obs.L("status", "error"))
	s.mReplaysCancel = s.reg.Counter("rmccd_replays_total", "", obs.L("status", "cancelled"))
	s.mReplayAccesses = s.reg.Counter("rmccd_replay_accesses_total",
		"accesses applied across all replays")
	s.mReplaySizes = s.reg.Histogram("rmccd_replay_size_accesses",
		"accesses applied per replay request",
		[]uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000})
	s.mReplaysWorkload = s.reg.Counter("rmccd_replay_requests_total",
		"replay requests, by wire", obs.L("wire", "workload"))
	s.mReplaysBinary = s.reg.Counter("rmccd_replay_requests_total", "",
		obs.L("wire", "binary"))
	s.mReplayBytes = s.reg.Counter("rmccd_replay_bytes_total",
		"replay body bytes read, by wire", obs.L("wire", "binary"))
	s.reg.GaugeFunc("rmccd_sessions_active", "live sessions",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	s.reg.GaugeFunc("rmccd_build_info",
		"constant 1, labeled with the daemon build version and revision",
		func() float64 { return 1 },
		obs.L("revision", buildinfo.GitSHA()), obs.L("version", buildinfo.Version()))

	// Per-stage replay latency (µs), fed by the stage spans.
	stageBuckets := obs.Pow2Buckets(1, 24) // 2µs .. ~16.8s
	for _, stage := range []string{stageDecode, stageEngine, stageRollup, stageEncode} {
		s.spans.RegisterStage(stage, s.reg.Histogram("rmccd_replay_stage_duration_us",
			"per-stage replay latency in microseconds", stageBuckets, obs.L("stage", stage)))
	}
	s.mSnapshots = s.reg.Counter("rmccd_snapshots_total",
		"session checkpoints cut (periodic, drain, and on-demand)")
	s.mSnapshotFailWrite = s.reg.Counter("rmccd_snapshot_failures_total",
		"checkpoint failures, by reason", obs.L("reason", "write"))
	s.mSnapshotFailLoad = s.reg.Counter("rmccd_snapshot_failures_total", "",
		obs.L("reason", "restore"))
	s.mSessionsRecovered = s.reg.Counter("rmccd_sessions_recovered_total",
		"sessions rehydrated from checkpoints at startup")
	s.mSnapshotDurationUS = s.reg.Histogram("rmccd_snapshot_duration_us",
		"checkpoint cut latency in microseconds (encode plus fsynced write for durable checkpoints; encode only for inline downloads)",
		obs.Pow2Buckets(4, 26))
	s.mSnapshotBytes = s.reg.Histogram("rmccd_snapshot_bytes",
		"encoded checkpoint size in bytes", obs.Pow2Buckets(10, 32))
	s.reg.GaugeFunc("rmccd_uptime_seconds", "seconds since the daemon started",
		func() float64 { return s.cfg.Now().Sub(s.started).Seconds() })
	s.reg.CounterFunc("rmccd_spans_total", "service-layer spans completed",
		func() uint64 { return s.spans.Total() })
	s.reg.CounterFunc("rmccd_flight_records_total",
		"records captured by the flight recorder over its lifetime",
		func() uint64 { return s.cfg.Flight.Records() })
	s.reg.CounterFunc("rmccd_flight_dropped_total",
		"flight-recorder records (spans and log lines) evicted to make room for newer ones",
		func() uint64 { return s.cfg.Flight.Dropped() })
	s.reg.CounterFunc("rmccd_log_lines_total", "structured log lines emitted",
		func() uint64 { return obs.LogLines(s.log) })
}

func (s *Server) initRoutes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("list", s.handleList))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.instrument("snapshot", s.handleSnapshot))
	s.mux.HandleFunc("POST /v1/sessions/{id}/snapshot", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("POST /v1/sessions/restore", s.instrument("restore", s.handleRestore))
	s.mux.HandleFunc("POST /v1/sessions/{id}/replay", s.instrument("replay", s.handleReplay))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	// The operational summary also lives on the service mux (not just the
	// loopback debug listener) so a router can health-check nodes over the
	// same address it proxies to.
	s.mux.HandleFunc("GET /statusz", s.instrument("statusz", s.handleStatusz))
	// Trace lookup and the flight recorder are likewise router-reachable:
	// the router fans /debug/tracez?trace= out to every node over its
	// proxy address, and operators can pull a postmortem dump from a
	// wedged node without a loopback debug listener.
	s.mux.HandleFunc("GET /debug/tracez", s.instrument("tracez", s.handleTracez))
	s.mux.HandleFunc("GET /debug/flightz", s.instrument("flightz", s.handleFlightz))
}

// Handler returns the routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the daemon's registry (tests, embedding).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// BeginDrain marks the server draining: health checks flip to 503 and new
// sessions/replays are refused while in-flight replays keep running.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// ForceCancel aborts every in-flight replay (drain deadline expired).
func (s *Server) ForceCancel() { s.forceCancel() }

// Close stops the janitor and the checkpointer, cancels in-flight
// replays, and drops every session. Call it once, after the HTTP listener
// has stopped accepting requests. A handler may still be running then
// (http.Server.Close does not wait for handlers), so Close touches a
// session's generator stream only after taking its replay lease, which it
// never gives back; a session whose lease is held is left to its holder.
func (s *Server) Close() {
	s.draining.Store(true)
	close(s.janitorStop)
	<-s.janitorDone
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	s.forceCancel()
	s.mu.Lock()
	for _, sess := range s.sessions {
		if ok, _ := sess.acquire(); ok && sess.stream != nil {
			sess.stream.Close()
		}
		delete(s.sessions, sess.id)
	}
	s.mu.Unlock()
}

// janitor periodically sweeps idle sessions.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.cfg.IdleTTL < 0 {
		<-s.janitorStop
		return
	}
	period := s.cfg.IdleTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Sweep(s.cfg.Now())
		case <-s.janitorStop:
			return
		}
	}
}

// Sweep evicts every session idle longer than IdleTTL as of now,
// returning how many went. Exported so tests drive TTL directly with an
// injected clock.
func (s *Server) Sweep(now time.Time) int {
	if s.cfg.IdleTTL < 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.IdleTTL).UnixNano()
	s.mu.Lock()
	var idle []*session
	for _, sess := range s.sessions {
		if sess.lastUsed.Load() <= cutoff {
			idle = append(idle, sess)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, sess := range idle {
		if s.evict(sess, s.mEvictedTTL, "ttl") {
			n++
		}
	}
	return n
}

// evict removes a session unless a replay holds it. The CAS ordering
// pairs with session.acquire (see its comment).
func (s *Server) evict(sess *session, ctr *obs.Counter, reason string) bool {
	if !sess.evicted.CompareAndSwap(false, true) {
		return false
	}
	if sess.replaying.Load() {
		sess.evicted.Store(false)
		return false
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	if sess.stream != nil {
		sess.stream.Close()
	}
	s.removeCheckpoint(sess)
	ctr.Inc()
	sess.lg.Info("session evicted",
		"reason", reason, "accesses", sess.accessesDone.Load())
	return true
}

// lookup finds a live session.
func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// validSessionID reports whether id has the daemon shape: "s-" plus 1-16
// lowercase hex digits. Everything accepting externally supplied IDs
// (router-assigned creates, restore blobs) must gate on this — the ID is
// joined into a checkpoint file name, so arbitrary strings are a path
// traversal waiting to happen.
func validSessionID(id string) bool {
	hexPart, ok := strings.CutPrefix(id, "s-")
	if !ok || len(hexPart) == 0 || len(hexPart) > 16 {
		return false
	}
	for i := 0; i < len(hexPart); i++ {
		c := hexPart[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// advanceNextID keeps the self-issued ID counter ahead of an externally
// supplied (router-assigned or restored) session ID.
func (s *Server) advanceNextID(id string) {
	n, err := parseSessionID(id)
	if err != nil {
		return
	}
	for {
		cur := s.nextID.Load()
		if n <= cur || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// --- handlers ---

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	sc, err := DecodeSessionConfig(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The router assigns IDs up front (?id=) so it can consistent-hash a
	// session onto a node before the session exists. IDs become checkpoint
	// file names, so only the strict daemon shape is accepted.
	id := r.URL.Query().Get("id")
	if id != "" {
		if !validSessionID(id) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("invalid session id %q (want s-<hex>, at most 16 hex digits)", id))
			return
		}
	} else {
		id = fmt.Sprintf("s-%08x", s.nextID.Add(1))
	}
	now := s.cfg.Now()
	sess, err := s.buildSession(id, sc, now)
	if err != nil {
		code := http.StatusInternalServerError
		var bad configError
		if errors.As(err, &bad) || errors.Is(err, engine.ErrInvalidConfig) {
			code = http.StatusBadRequest
		}
		writeError(w, code, err.Error())
		return
	}
	// A sampled create binds its trace ID into every later log line the
	// session emits, so one grep connects logs to the distributed trace.
	if tc := traceCtx(r.Context()); tc.Valid() && tc.Sampled {
		sess.lg = sess.lg.With("trace", tc.TraceID())
	}
	sess.touch(now)

	s.mu.Lock()
	if len(s.sessions) >= maxSessions {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit reached (%d)", maxSessions))
		return
	}
	if _, exists := s.sessions[id]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Sprintf("session %q already exists", id))
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	// Explicit IDs must never collide with later self-issued ones.
	s.advanceNextID(id)
	s.mSessionsCreated.Inc()
	sess.lg.Info("session created",
		"mode", sess.mode, "scheme", sess.scheme,
		"footprint_bytes", sess.footprint, "config_hash", sess.cfgHash)
	// Durable from birth: cut the initial checkpoint now so a crash at any
	// point after the create response leaves the session recoverable.
	if s.cfg.SnapshotDir != "" {
		if err := s.checkpointSession(sess); err != nil {
			sess.lg.Warn("initial checkpoint failed", "error", err)
		}
	}
	writeJSON(w, http.StatusCreated, sess.info(0, now))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	now := s.cfg.Now()
	s.mu.Lock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess.info(sess.accessesDone.Load(), now))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if !s.evict(sess, s.mEvictedAPI, "api") {
		writeError(w, http.StatusConflict, "session busy (replay in flight)")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSnapshot returns the session's cumulative stats plus a run
// manifest — the same diffable artifact the CLI tools write, cut live.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
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
	res := sess.lt.Counters()
	sess.touch(s.cfg.Now())
	stats := statsFromResult(sess.id, sess.seed, res)
	manifest := obs.NewManifest("rmccd", map[string]any{
		"session": sess.id, "name": sess.name, "mode": sess.mode,
		"scheme": sess.scheme, "footprint_bytes": sess.footprint,
	})
	manifest.Seed = sess.seed
	manifest.Started = sess.created.UTC().Format(time.RFC3339)
	manifest.GoMaxProcs = runtime.GOMAXPROCS(0)
	manifest.Notes["session"] = sess.id
	manifest.Notes["name"] = sess.name
	manifest.Headline["accesses"] = float64(stats.Accesses)
	manifest.Headline["ctr_miss_rate"] = stats.CtrMissRate
	manifest.Headline["memo_hit_rate_on_misses"] = stats.MemoHitRateOnMisses
	manifest.Headline["accelerated_rate"] = stats.AcceleratedRate
	manifest.Headline["total_traffic_blocks"] = float64(stats.TotalTrafficBlocks)
	manifest.Headline["max_counter"] = float64(stats.MaxCounter)
	writeJSON(w, http.StatusOK, SnapshotResponse{Stats: stats, Manifest: manifest})
}

// SnapshotResponse is the GET /v1/sessions/{id}/snapshot body.
type SnapshotResponse struct {
	Stats    ReplayStats  `json:"stats"`
	Manifest obs.Manifest `json:"manifest"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Warn("write metrics failed", "error", err)
	}
}

// --- response helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorBody{Error: msg})
}
