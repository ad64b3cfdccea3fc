// Package server implements rmccd, the simulation-as-a-service daemon: a
// dependency-free (net/http only) HTTP surface over the lifetime
// simulator. Clients create sessions — each one a fully configured secure
// memory controller plus cache hierarchy — and replay access streams
// against them, either uploaded RMTR frame streams or the built-in
// workload generators. Engines are not thread-safe, so a session has one
// owner at a time: the handler goroutine holding its replay lease steps
// the engine itself, and a second replay gets 409. Each batch is applied
// before the next is read, which backpressures a streaming upload through
// its TCP window.
//
// See docs/SERVICE.md for the API reference.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// SessionConfig is the POST /v1/sessions request body. Either bind a
// built-in workload generator (workload + size) or declare the virtual
// footprint of the access streams you will upload (footprint_bytes) so
// the engine's protected-memory size can be derived the same way the
// direct drivers derive it.
type SessionConfig struct {
	// Mode is the protection level: nonsecure|baseline|rmcc (default rmcc).
	Mode string `json:"mode,omitempty"`
	// Scheme is the counter organization: sgx|sc64|morphable (default
	// morphable).
	Scheme string `json:"scheme,omitempty"`
	// Seed drives counter initialization, page mapping, and the bound
	// workload generator (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Workload optionally binds a built-in generator (see rmccsim -list);
	// replays may then use the workload shortcut instead of uploading
	// accesses. The session footprint is the workload's.
	Workload string `json:"workload,omitempty"`
	// Size scales the bound workload: test|small|full (default test).
	Size string `json:"size,omitempty"`

	// FootprintBytes declares the virtual footprint for upload sessions
	// (required when no workload is bound).
	FootprintBytes uint64 `json:"footprint_bytes,omitempty"`

	// Label names upload sessions in stats and listings.
	Label string `json:"label,omitempty"`

	// Engine, when set, overrides the entire controller configuration
	// (JSON keys are the engine.Config Go field names). MemBytes is still
	// derived from the session footprint. When unset, the paper's Table-I
	// defaults for mode/scheme apply with InitSeed = Seed.
	Engine *engine.Config `json:"engine,omitempty"`
}

// DecodeSessionConfig parses a strict session-config document: unknown
// fields and trailing garbage are errors, never panics. The caller caps
// the input size.
func DecodeSessionConfig(data []byte) (SessionConfig, error) {
	var sc SessionConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return SessionConfig{}, fmt.Errorf("session config: %w", err)
	}
	if dec.More() {
		return SessionConfig{}, fmt.Errorf("session config: trailing data after document")
	}
	return sc, nil
}

// resolved is a SessionConfig elaborated into runnable pieces.
type resolved struct {
	name      string // stream name (workload or label)
	footprint uint64
	seed      uint64
	mode      engine.Mode
	scheme    counter.Scheme
	w         workload.Workload // nil for upload sessions
	ltCfg     sim.LifetimeConfig
}

// resolve elaborates the config: parse enums, bind the workload, and
// assemble the same lifetime configuration a direct run would use, so the
// service layer adds no behavioral drift.
func (sc SessionConfig) resolve() (resolved, error) {
	r := resolved{seed: sc.Seed}
	if r.seed == 0 {
		r.seed = 1
	}
	var err error
	if r.mode, err = engine.ParseMode(defaultStr(sc.Mode, "rmcc")); err != nil {
		return r, err
	}
	if r.scheme, err = counter.ParseScheme(defaultStr(sc.Scheme, "morphable")); err != nil {
		return r, err
	}
	size, err := workload.ParseSize(defaultStr(sc.Size, "test"))
	if err != nil {
		return r, err
	}
	if sc.Workload != "" {
		w, ok := workload.ByName(size, r.seed, sc.Workload)
		if !ok {
			return r, fmt.Errorf("unknown workload %q", sc.Workload)
		}
		r.w = w
		r.name = w.Name()
		r.footprint = w.FootprintBytes()
	} else {
		if sc.FootprintBytes == 0 {
			return r, fmt.Errorf("either workload or footprint_bytes is required")
		}
		r.name = defaultStr(sc.Label, "ndjson")
		r.footprint = sc.FootprintBytes
	}
	var engCfg engine.Config
	if sc.Engine != nil {
		engCfg = *sc.Engine
	} else {
		engCfg = engine.DefaultConfig(r.mode, r.scheme, 0)
		engCfg.InitSeed = r.seed
	}
	r.ltCfg = sim.DefaultLifetimeConfig(engCfg)
	if sc.Engine != nil {
		// DefaultLifetimeConfig pins the Pintool per-thread counter cache;
		// an explicit Engine override owns the whole controller config.
		r.ltCfg.Engine = engCfg
	}
	r.ltCfg.Seed = r.seed
	return r, nil
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// SessionInfo describes one live session (create response, listings).
// The rate and latency fields are live lock-free mirrors refreshed after
// each applied replay chunk — the data rmcc-top renders without touching
// the engine or taking the replay lease.
type SessionInfo struct {
	ID             string `json:"id"`
	Name           string `json:"name"`
	Workload       string `json:"workload,omitempty"`
	Mode           string `json:"mode"`
	Scheme         string `json:"scheme"`
	Seed           uint64 `json:"seed"`
	FootprintBytes uint64 `json:"footprint_bytes"`
	Created        string `json:"created"` // RFC 3339 UTC
	Accesses       uint64 `json:"accesses"`
	Replaying      bool   `json:"replaying"`
	ConfigHash     string `json:"config_hash"`

	// Node is the cluster node serving the session. Empty in a single
	// daemon's own listing; rmcc-router fills it when merging per-node
	// listings into the cluster-wide view.
	Node string `json:"node,omitempty"`

	// Live engine rates as of the last applied chunk (0 until then).
	CtrMissRate         float64 `json:"ctr_miss_rate"`
	MemoHitRateOnMisses float64 `json:"memo_hit_rate_on_misses"`
	AcceleratedRate     float64 `json:"accelerated_rate"`
	// Per-chunk engine-step latency quantiles in microseconds, estimated
	// from the session's bucketed history (0 until a chunk applies).
	ReplayP50us float64 `json:"replay_p50_us"`
	ReplayP99us float64 `json:"replay_p99_us"`

	// Durable-checkpoint view: when the last on-disk checkpoint was cut,
	// how stale it is, and its encoded size. Empty/zero when the daemon
	// runs without -snapshot-dir or the session has never checkpointed.
	LastCheckpoint    string  `json:"last_checkpoint,omitempty"`
	CheckpointAgeSecs float64 `json:"checkpoint_age_seconds,omitempty"`
	CheckpointBytes   uint64  `json:"checkpoint_bytes,omitempty"`
}

// ReplayStats is the rolled-up result of a replay (and the stats half of
// a snapshot): the session's cumulative lifetime-driver view.
type ReplayStats struct {
	SessionID     string `json:"session_id"`
	Name          string `json:"name"`
	Seed          uint64 `json:"seed"`
	Accesses      uint64 `json:"accesses"`
	LLCMissReads  uint64 `json:"llc_miss_reads"`
	LLCMissWrites uint64 `json:"llc_miss_writes"`
	MaxCounter    uint64 `json:"max_counter"`

	CtrMissRate         float64 `json:"ctr_miss_rate"`
	MemoHitRateOnMisses float64 `json:"memo_hit_rate_on_misses"`
	MemoHitRateAll      float64 `json:"memo_hit_rate_all"`
	AcceleratedRate     float64 `json:"accelerated_rate"`
	TotalTrafficBlocks  uint64  `json:"total_traffic_blocks"`

	// Engine is the full controller counter block (JSON keys are the
	// engine.Stats Go field names) for exact cross-checking against
	// direct runs.
	Engine engine.Stats `json:"engine"`

	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// statsFromResult rolls a lifetime result into the wire form.
func statsFromResult(id string, seed uint64, res sim.LifetimeResult) ReplayStats {
	return ReplayStats{
		SessionID:           id,
		Name:                res.Workload,
		Seed:                seed,
		Accesses:            res.Accesses,
		LLCMissReads:        res.LLCMissReads,
		LLCMissWrites:       res.LLCMissWrites,
		MaxCounter:          res.MaxCounter,
		CtrMissRate:         res.Engine.CtrMissRate(),
		MemoHitRateOnMisses: res.Engine.MemoHitRateOnMisses(),
		MemoHitRateAll:      res.Engine.MemoHitRateAll(),
		AcceleratedRate:     res.Engine.AcceleratedRate(),
		TotalTrafficBlocks:  res.Engine.TotalTraffic(),
		Engine:              res.Engine,
	}
}

// ReplayFrame is one NDJSON response frame of a progress-streaming
// replay: progress frames while the stream applies, then exactly one
// result or error frame.
type ReplayFrame struct {
	Type     string       `json:"type"` // progress | result | error
	Accesses uint64       `json:"accesses,omitempty"`
	Stats    *ReplayStats `json:"stats,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// ErrorBody is the JSON error envelope for non-2xx responses.
type ErrorBody struct {
	Error string `json:"error"`
}
