package server

import (
	"errors"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
)

// DebugHandler returns the daemon's profiling surface, the
// net/http/pprof family, as a separate handler so cmd/rmccd can bind it
// to its own (typically loopback-only) listener, gated by -debug-addr.
// /statusz, /debug/tracez and /debug/flightz live on the service mux,
// where the router reads them.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	// Explicit pprof registration; pprof.Index serves the named profiles
	// (heap, goroutine, ...) under /debug/pprof/<name> itself.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StatuszInfo is the GET /statusz body: a one-page operational summary of
// the daemon.
type StatuszInfo struct {
	Version       string  `json:"version"`
	Revision      string  `json:"revision"`
	GoVersion     string  `json:"go_version"`
	StartedAt     string  `json:"started_at"` // RFC 3339 UTC
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	ChunkAccesses int `json:"chunk_accesses"`
	Sessions      int `json:"sessions"`
	MaxSessions   int `json:"max_sessions"`

	SpansTotal    uint64 `json:"spans_total"`
	LogLines      uint64 `json:"log_lines"`
	NumGoroutines int    `json:"num_goroutines"`

	// Record-store (flight recorder) state. FlightDropped counts records
	// evicted before any export read them: nonzero means /debug/tracez
	// windows are truncated.
	FlightRecords uint64 `json:"flight_records"`
	FlightDropped uint64 `json:"flight_dropped"`
	FlightBytes   int    `json:"flight_bytes"`

	// Durable-checkpoint state (zero/empty without -snapshot-dir).
	SnapshotDir       string `json:"snapshot_dir,omitempty"`
	SnapshotsTotal    uint64 `json:"snapshots_total"`
	SnapshotFailures  uint64 `json:"snapshot_failures"`
	SessionsRecovered uint64 `json:"sessions_recovered"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	now := s.cfg.Now()
	info := StatuszInfo{
		Version:       buildinfo.Version(),
		Revision:      buildinfo.GitSHA(),
		GoVersion:     runtime.Version(),
		StartedAt:     s.started.UTC().Format(time.RFC3339),
		UptimeSeconds: now.Sub(s.started).Seconds(),
		Draining:      s.draining.Load(),
		ChunkAccesses: s.cfg.ChunkAccesses,
		MaxSessions:   maxSessions,
		SpansTotal:    s.spans.Total(),
		LogLines:      obs.LogLines(s.log),
		NumGoroutines: runtime.NumGoroutine(),

		FlightRecords: s.cfg.Flight.Records(),
		FlightDropped: s.cfg.Flight.Dropped(),
		FlightBytes:   s.cfg.Flight.Bytes(),

		SnapshotDir:       s.cfg.SnapshotDir,
		SnapshotsTotal:    s.mSnapshots.Value(),
		SnapshotFailures:  s.mSnapshotFailWrite.Value() + s.mSnapshotFailLoad.Value(),
		SessionsRecovered: s.mSessionsRecovered.Value(),
	}
	s.mu.Lock()
	info.Sessions = len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// TracezSpan is one span in the GET /debug/tracez body, with durations
// rendered in microseconds for human and rmcc-top consumption.
type TracezSpan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Trace is the 32-hex-digit distributed trace ID ("" when untraced).
	Trace string `json:"trace,omitempty"`
	// Remote is the propagated parent span ID from the upstream process
	// (its ordinal space, not this node's), 0 when none.
	Remote uint64 `json:"remote,omitempty"`
	// Node identifies the process that recorded the span; the router
	// stamps its own rows "router" and fan-out rows keep the node's own
	// stamp, so merged trees are attributable and diffable.
	Node       string `json:"node,omitempty"`
	Name       string `json:"name"`
	Detail     string `json:"detail,omitempty"`
	Start      string `json:"start"` // RFC 3339 UTC, nanosecond precision
	StartNS    int64  `json:"start_ns"`
	DurationUS uint64 `json:"duration_us"`
}

// TracezResponse is the GET /debug/tracez body. Without ?trace= it is the
// slowest-spans view (Slowest); with ?trace=<32-hex id> it is the full
// tree for that trace (Trace + Spans, sorted by (start, span ID)).
type TracezResponse struct {
	Node         string       `json:"node,omitempty"`
	TotalSpans   uint64       `json:"total_spans"`
	Retained     int          `json:"retained"`
	SpansDropped uint64       `json:"spans_dropped"`
	Trace        string       `json:"trace,omitempty"`
	Spans        []TracezSpan `json:"spans,omitempty"`
	Slowest      []TracezSpan `json:"slowest,omitempty"`
}

// tracezSpan renders one span record with the node stamp.
func tracezSpan(sp obs.SpanRecord, node string) TracezSpan {
	return TracezSpan{
		ID:         sp.ID,
		Parent:     sp.Parent,
		Trace:      sp.TraceID(),
		Remote:     sp.Remote,
		Node:       node,
		Name:       sp.Name,
		Detail:     sp.Detail,
		Start:      time.Unix(0, sp.Start).UTC().Format(time.RFC3339Nano),
		StartNS:    sp.Start,
		DurationUS: uint64(sp.Duration) / 1e3,
	}
}

// Tracez builds the GET /debug/tracez body from tr's store, stamping each
// row with node: the slowest retained spans (?n=, default 25) — the live
// "where did the time go" view over recent requests and chunks — or, with
// ?trace=<32-hex id>, every retained span of one distributed trace sorted
// by (start, span ID). rmccd serves it as is; rmcc-router merges the
// nodes' trace slices into its own. Errors are bad query parameters.
func Tracez(tr *obs.SpanTracer, node string, q url.Values) (TracezResponse, error) {
	resp := TracezResponse{
		Node:         node,
		TotalSpans:   tr.Total(),
		Retained:     len(tr.Spans()),
		SpansDropped: tr.Dropped(),
		Trace:        q.Get("trace"),
	}
	if resp.Trace != "" {
		hi, lo, err := obs.ParseTraceID(resp.Trace)
		if err != nil {
			return TracezResponse{}, err
		}
		spans := tr.SpansForTrace(hi, lo)
		resp.Spans = make([]TracezSpan, 0, len(spans))
		for _, sp := range spans {
			resp.Spans = append(resp.Spans, tracezSpan(sp, node))
		}
		return resp, nil
	}
	n := 25
	if raw := q.Get("n"); raw != "" {
		v, err := parseUint(raw)
		if err != nil || v == 0 || v > 10_000 {
			return TracezResponse{}, errors.New("n must be in [1, 10000]")
		}
		n = int(v)
	}
	slow := tr.Slowest(n)
	resp.Slowest = make([]TracezSpan, 0, len(slow))
	for _, sp := range slow {
		resp.Slowest = append(resp.Slowest, tracezSpan(sp, node))
	}
	return resp, nil
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	resp, err := Tracez(s.spans, s.cfg.NodeID, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// FlightzInfo is the GET /debug/flightz summary body.
type FlightzInfo struct {
	Node     string `json:"node"`
	Records  uint64 `json:"records"`
	Dropped  uint64 `json:"dropped"`
	Bytes    int    `json:"bytes"`
	CapBytes int    `json:"cap_bytes"`
}

// handleFlightz summarizes the record store; ?dump=1 streams the full
// binary dump (obs.ReadFlightDump decodes it, `rmcc-top -flight -`
// renders it).
func (s *Server) handleFlightz(w http.ResponseWriter, r *http.Request) {
	fr := s.cfg.Flight
	if r.URL.Query().Get("dump") == "1" {
		w.Header().Set("Content-Type", "application/octet-stream")
		_ = fr.Dump(w)
		return
	}
	writeJSON(w, http.StatusOK, FlightzInfo{
		Node:     s.cfg.NodeID,
		Records:  fr.Records(),
		Dropped:  fr.Dropped(),
		Bytes:    fr.Bytes(),
		CapBytes: fr.Cap(),
	})
}

// Spans exposes the daemon's span tracer (tests, embedding).
func (s *Server) Spans() *obs.SpanTracer { return s.spans }
