package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// This file is the request-scoped span component of the service
// observability layer: lightweight start/end spans with a parent link and
// a free-form detail string, summarized into per-stage latency histograms
// and stored once, in the process's FlightRecorder ring. /debug/tracez,
// /debug/flightz?dump=1 and rmcc-top -flight all read that one store.
//
// Unlike the single-run Tracer, a SpanTracer IS safe for concurrent use:
// rmccd records spans from every HTTP handler goroutine, including every
// replay batch's stages. Completing a span is allocation-free (atomic
// histogram adds plus one framed copy into the recorder's preallocated
// ring), so the daemon's zero-alloc replay chunk path holds with spans
// enabled.

// SpanRecord is one completed span.
type SpanRecord struct {
	// ID is the span's unique ordinal (1-based, per tracer).
	ID uint64
	// Parent is the enclosing span's ID, or 0 for a root span.
	Parent uint64
	// TraceHi/TraceLo carry the distributed trace ID this span belongs
	// to (both 0 for an untraced span).
	TraceHi uint64
	TraceLo uint64
	// Remote is the propagated parent span ID from the upstream process
	// (the router's or client's span), set only on spans opened directly
	// from an X-Rmcc-Trace header; 0 otherwise. Remote IDs live in the
	// upstream tracer's ordinal space, so they are rendered distinctly
	// from local Parent links.
	Remote uint64
	// Name is the stage name ("replay", "decode", "engine-step", ...).
	Name string
	// Detail is free-form context (typically a session id or URL path).
	Detail string
	// Start is the span's start time in Unix nanoseconds.
	Start int64
	// Duration is the span's length in nanoseconds.
	Duration int64
}

// TraceID returns the span's 32-hex-digit trace ID ("" when untraced).
func (r SpanRecord) TraceID() string {
	return TraceContext{TraceHi: r.TraceHi, TraceLo: r.TraceLo}.TraceID()
}

// spanFrameBytes is the ring space NewSpanTracer budgets per span: the
// frame of a span whose name and detail total 10 bytes.
const spanFrameBytes = 3 + flightSpanFixed + 1 + 2 + 10

// SpanTracer hands out span IDs, times spans, feeds their stage
// histograms, and writes each completed span into its FlightRecorder.
// Safe for concurrent Start/End/RecordT/read calls. Nil-safe: Start on a
// nil tracer returns an inert Span, RecordT is a no-op — the disabled
// state.
//
// RegisterStage and SetClock configure the tracer and must complete
// before concurrent use begins.
type SpanTracer struct {
	now    func() time.Time
	ids    atomic.Uint64
	stages map[string]*Histogram
	store  *FlightRecorder
}

// NewSpanTracer builds a tracer on a private recorder with room for about
// capacity spans (DefaultFlightCap bytes when capacity <= 0).
func NewSpanTracer(capacity int) *SpanTracer {
	return NewSpanTracerOn(NewFlightRecorder(capacity*spanFrameBytes, ""))
}

// NewSpanTracerOn builds a tracer that stores its spans in fr, which may
// also hold the process's events and log lines.
func NewSpanTracerOn(fr *FlightRecorder) *SpanTracer {
	return &SpanTracer{now: time.Now, stages: make(map[string]*Histogram), store: fr}
}

// SetClock replaces the time source (tests). Configuration-time only.
func (t *SpanTracer) SetClock(now func() time.Time) {
	if t != nil && now != nil {
		t.now = now
	}
}

// RegisterStage attaches a latency histogram (microsecond observations)
// to spans named name. Configuration-time only. Spans with unregistered
// names are still stored; they just feed no histogram.
func (t *SpanTracer) RegisterStage(name string, hist *Histogram) {
	if t != nil {
		t.stages[name] = hist
	}
}

// Start opens a span. parent is the enclosing span's ID (0 for roots).
// The returned Span is a value — starting and ending a span allocates
// nothing. On a nil tracer it returns an inert Span whose End is a no-op.
func (t *SpanTracer) Start(name, detail string, parent uint64) Span {
	return t.StartT(name, detail, parent, TraceContext{})
}

// traceBits returns tc's trace ID for span association, honoring the
// sampled bit: an unsampled context still propagates downstream on the
// wire but associates no spans, so /debug/tracez?trace= stays empty for
// it by design.
func traceBits(tc TraceContext) (hi, lo uint64) {
	if !tc.Sampled {
		return 0, 0
	}
	return tc.TraceHi, tc.TraceLo
}

// StartT opens a span inside trace tc with a local parent link. Only tc's
// trace ID and sampled bit are used; parent is the local enclosing span's
// ID exactly as in Start. The zero TraceContext degrades to Start, and an
// unsampled tc records the span without the trace association.
func (t *SpanTracer) StartT(name, detail string, parent uint64, tc TraceContext) Span {
	if t == nil {
		return Span{}
	}
	hi, lo := traceBits(tc)
	return Span{
		t:      t,
		id:     t.ids.Add(1),
		parent: parent,
		hi:     hi,
		lo:     lo,
		name:   name,
		detail: detail,
		start:  t.now().UnixNano(),
	}
}

// StartRemote opens a root span continuing a propagated trace context:
// the span has no local parent, and tc.SpanID (the upstream process's
// span) is recorded as its remote parent. This is the request-ingress
// path for X-Rmcc-Trace.
func (t *SpanTracer) StartRemote(name, detail string, tc TraceContext) Span {
	if t == nil {
		return Span{}
	}
	hi, lo := traceBits(tc)
	return Span{
		t:      t,
		id:     t.ids.Add(1),
		remote: tc.SpanID,
		hi:     hi,
		lo:     lo,
		name:   name,
		detail: detail,
		start:  t.now().UnixNano(),
	}
}

// RecordT logs an externally measured span (start in Unix nanoseconds)
// inside trace tc (trace ID only; parent stays the local link) and
// returns its ID — the path for stages whose boundaries the caller
// measured itself, like rmccd's back-to-back replay stages, each of which
// starts where the previous one ended. No-op returning 0 on a nil tracer.
// Allocation-free — it runs on the replay batch path.
func (t *SpanTracer) RecordT(name, detail string, parent uint64, tc TraceContext, startNS int64, d time.Duration) uint64 {
	if t == nil {
		return 0
	}
	if d < 0 {
		d = 0
	}
	hi, lo := traceBits(tc)
	id := t.ids.Add(1)
	t.record(SpanRecord{ID: id, Parent: parent, TraceHi: hi, TraceLo: lo, Name: name, Detail: detail, Start: startNS, Duration: int64(d)})
	return id
}

func (t *SpanTracer) record(r SpanRecord) {
	t.stages[r.Name].Observe(uint64(r.Duration) / 1e3) // nil-safe
	t.store.RecordSpan(r)
}

// recorder returns the tracer's store (nil on a nil tracer; every
// FlightRecorder read is nil-safe).
func (t *SpanTracer) recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.store
}

// Dropped returns how many records the store has evicted (0 on nil): the
// process's one dropped-records count, so a wrapped ring means
// /debug/tracez is showing a truncated window.
func (t *SpanTracer) Dropped() uint64 { return t.recorder().Dropped() }

// Total returns the number of spans stored over the tracer's lifetime
// (0 on nil).
func (t *SpanTracer) Total() uint64 { return t.recorder().SpanTotal() }

// Spans returns the retained spans oldest-first (a copy; nil on nil).
func (t *SpanTracer) Spans() []SpanRecord { return t.recorder().Spans() }

// SpansForTrace returns the retained spans belonging to trace (hi, lo),
// sorted by (start, span ID) so single-node output and cluster fan-out
// merges are deterministic — the /debug/tracez?trace= view.
func (t *SpanTracer) SpansForTrace(hi, lo uint64) []SpanRecord {
	if t == nil || (hi == 0 && lo == 0) {
		return nil
	}
	var out []SpanRecord
	for _, r := range t.Spans() {
		if r.TraceHi == hi && r.TraceLo == lo {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Slowest returns up to n retained spans by descending duration (ties
// break on ascending ID) — the /debug/tracez view.
func (t *SpanTracer) Slowest(n int) []SpanRecord {
	all := t.Spans()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Duration != all[j].Duration {
			return all[i].Duration > all[j].Duration
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Span is an open span handle. It is a value type: Start + End allocate
// nothing. The zero Span is inert.
type Span struct {
	t      *SpanTracer
	id     uint64
	parent uint64
	remote uint64
	hi, lo uint64
	name   string
	detail string
	start  int64
}

// ID returns the span's ID for parent links (0 for an inert span).
func (s Span) ID() uint64 { return s.id }

// Start returns the span's start time in Unix nanoseconds (0 for an
// inert span).
func (s Span) Start() int64 { return s.start }

// End completes the span, recording it into its stage histogram and the
// store. No-op on an inert span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := s.t.now().UnixNano() - s.start
	if d < 0 {
		d = 0
	}
	s.t.record(SpanRecord{ID: s.id, Parent: s.parent, TraceHi: s.hi, TraceLo: s.lo, Remote: s.remote, Name: s.name, Detail: s.detail, Start: s.start, Duration: d})
}
