package server

import (
	"bytes"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// session is one client-visible simulation: a Lifetime stepper (engine +
// cache hierarchy + TLBs + page mapper). Its one owner is whichever
// goroutine holds the replay lease (acquire): a replay, a stats snapshot
// or a checkpoint. Only the holder touches lt, stream, pulled and
// ckptBuf, so the non-thread-safe engine is stepped by one goroutine at a
// time. Once the session is evicted (by evict or Server.Close), whoever
// holds the lease or takes it next keeps it for good and closes stream
// (end), so no acquire succeeds after that. Everything else is immutable
// or atomic.
type session struct {
	id      string
	name    string
	mode    string
	scheme  string
	seed    uint64
	created time.Time

	cfgHash   string
	footprint uint64
	// sc is the original create-request config, carried verbatim into
	// checkpoints so recovery rebuilds the identical session.
	sc SessionConfig

	lt *sim.Lifetime
	w  workload.Workload // bound generator; nil for upload sessions
	// stream is the persistent pull side of the bound generator, created
	// on first workload replay so successive replays continue one
	// deterministic stream. Closed at eviction or server close, and after
	// a replay cut off mid-batch (it has then run ahead of pulled).
	stream *sim.AccessStream
	// pulled counts accesses applied from the bound generator's logical
	// stream across incarnations. It is the checkpointed resume cursor:
	// restore seeds it from the snapshot, and a stream — a pure function
	// of (workload, seed) — is always built by discarding pulled accesses.
	pulled uint64

	// ckptBuf is the reusable checkpoint encode buffer, touched only while
	// the replay lease is held (checkpoints take the lease like replays).
	ckptBuf bytes.Buffer
	// Checkpoint mirrors for lock-free listings: unix nanos of the last
	// durable checkpoint, its encoded size, and the access count it
	// captured (so the periodic checkpointer skips idle sessions).
	lastCkptNS       atomic.Int64
	lastCkptBytes    atomic.Uint64
	lastCkptAccesses atomic.Uint64

	// lg carries the session's bound log fields (session, workload, seed).
	lg *slog.Logger
	// sampler rate-limits per-chunk debug lines so a debug-level daemon
	// under a large replay does not write one line per 4096 accesses.
	sampler *obs.LogSampler
	// chunkHist tracks per-chunk engine-step latency in microseconds. It
	// is a standalone histogram (one per session would flood the registry)
	// surfaced as p50/p99 in SessionInfo listings for rmcc-top.
	chunkHist *obs.Histogram

	lastUsed atomic.Int64 // unix nanos
	// accessesDone mirrors lt.Accesses() for lock-free listings; updated
	// after each applied batch.
	accessesDone atomic.Uint64
	replaying    atomic.Bool // exclusive replay/snapshot-modifying lease
	evicted      atomic.Bool // set once, never cleared

	// Live engine-rate mirrors (float64 bits), refreshed by the lease
	// holder after each applied batch so listings never touch the engine.
	rCtrMiss atomic.Uint64
	rMemoHit atomic.Uint64
	rAccel   atomic.Uint64
}

func (s *session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// storeRates refreshes the lock-free rate mirrors from an engine stats
// copy taken by the lease holder.
func (s *session) storeRates(st engine.Stats) {
	s.rCtrMiss.Store(math.Float64bits(st.CtrMissRate()))
	s.rMemoHit.Store(math.Float64bits(st.MemoHitRateOnMisses()))
	s.rAccel.Store(math.Float64bits(st.AcceleratedRate()))
}

// acquire takes the exclusive replay lease, refusing sessions that are
// busy or evicted. The lease is the session's one owner: the CAS here and
// release's Store order each holder after the previous one, so
// everything a holder wrote is visible to the next. A session evicted
// while its lease was free is ended by whoever takes the lease next.
func (s *session) acquire() (ok, gone bool) {
	if !s.replaying.CompareAndSwap(false, true) {
		return false, s.evicted.Load()
	}
	if s.evicted.Load() {
		s.end()
		return false, true
	}
	return true, false
}

// release gives the lease back, unless the session was evicted while it
// was held: then the lease is taken again, for good, and the stream
// closed. Server.Close sets evicted before it tries the lease and
// release clears the lease before it reads evicted, so at least one of
// the two sees the other, and the CAS lets only one of them end the
// session.
func (s *session) release() {
	s.replaying.Store(false)
	if s.evicted.Load() && s.replaying.CompareAndSwap(false, true) {
		s.end()
	}
}

// end closes the generator stream of an evicted session; the caller has
// taken the lease for good.
func (s *session) end() {
	if s.stream != nil {
		s.stream.Close()
		s.stream = nil
	}
}

// info renders the listing view.
func (s *session) info(accesses uint64, now time.Time) SessionInfo {
	wl := ""
	if s.w != nil {
		wl = s.w.Name()
	}
	var lastCkpt string
	var ckptAge float64
	if ns := s.lastCkptNS.Load(); ns != 0 {
		lastCkpt = time.Unix(0, ns).UTC().Format(time.RFC3339)
		ckptAge = now.Sub(time.Unix(0, ns)).Seconds()
	}
	return SessionInfo{
		ID:                  s.id,
		Name:                s.name,
		Workload:            wl,
		Mode:                s.mode,
		Scheme:              s.scheme,
		Seed:                s.seed,
		FootprintBytes:      s.footprint,
		Created:             s.created.UTC().Format(time.RFC3339),
		Accesses:            accesses,
		Replaying:           s.replaying.Load(),
		ConfigHash:          s.cfgHash,
		CtrMissRate:         math.Float64frombits(s.rCtrMiss.Load()),
		MemoHitRateOnMisses: math.Float64frombits(s.rMemoHit.Load()),
		AcceleratedRate:     math.Float64frombits(s.rAccel.Load()),
		ReplayP50us:         s.chunkHist.Quantile(0.5),
		ReplayP99us:         s.chunkHist.Quantile(0.99),
		LastCheckpoint:      lastCkpt,
		CheckpointAgeSecs:   ckptAge,
		CheckpointBytes:     s.lastCkptBytes.Load(),
	}
}
