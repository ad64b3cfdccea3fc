package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service-side glue around the standard library's
// log/slog. NewLogger builds a *slog.Logger whose lines keep this
// repository's schema, counts the lines its logger family writes
// (LogLines), and, once AttachFlight has run, tees every warn+ record
// into a FlightRecorder. DiscardLogger is the disabled state, and
// LogSampler rate-limits hot-path call sites.

// LogFormat selects the line encoding: "text" renders ts=… level=…
// msg=… k=v lines (values quoted only when they contain spaces, quotes
// or '='); "json" renders one object per line with keys in the order
// ts, level, msg, bound fields, call-site fields. A -log-format flag
// parses into it through flag.TextVar.
type LogFormat string

// UnmarshalText accepts "text" or "json".
func (f *LogFormat) UnmarshalText(b []byte) error {
	switch LogFormat(b) {
	case "text", "json":
		*f = LogFormat(b)
		return nil
	}
	return fmt.Errorf("unknown log format %q (want text|json)", b)
}

// MarshalText returns the format name.
func (f LogFormat) MarshalText() ([]byte, error) { return []byte(f), nil }

// NewLogger builds a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level slog.Level, format LogFormat) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: schemaAttr}
	var out slog.Handler = slog.NewTextHandler(w, opts)
	if format == "json" {
		out = slog.NewJSONHandler(w, opts)
	}
	tee := &logTee{}
	line := slog.NewTextHandler(&tee.buf, &slog.HandlerOptions{ReplaceAttr: flightAttr})
	return slog.New(&logHandler{Handler: out, line: line, tee: tee})
}

// schemaAttr keeps the line schema: the record time as "ts" in UTC
// RFC 3339 with nanoseconds, lower-case level names, and durations as Go
// duration strings ("10s"; the JSON handler would write nanoseconds).
func schemaAttr(groups []string, a slog.Attr) slog.Attr {
	v := a.Value
	switch {
	case v.Kind() == slog.KindDuration:
		return slog.String(a.Key, v.Duration().String())
	case len(groups) > 0: // time and level are top-level keys
	case a.Key == slog.TimeKey && v.Kind() == slog.KindTime:
		return slog.String("ts", v.Time().UTC().Format(time.RFC3339Nano))
	case a.Key == slog.LevelKey:
		if l, ok := v.Any().(slog.Level); ok {
			return slog.String(a.Key, strings.ToLower(l.String()))
		}
	}
	return a
}

// flightAttr drops the time and level from a flight log line: both are
// fields of the flight record itself.
func flightAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 && (a.Key == slog.TimeKey || a.Key == slog.LevelKey) {
		return slog.Attr{}
	}
	return a
}

// logHandler wraps the output handler of one logger family. The loggers
// that With derives from it share its logTee.
type logHandler struct {
	slog.Handler              // writes the line
	line         slog.Handler // the same bound fields, rendering flight lines into tee.buf
	tee          *logTee
}

// logTee is the state a logger family shares: its line count and its
// flight tee.
type logTee struct {
	lines atomic.Uint64

	mu     sync.Mutex // guards flight and buf
	flight *FlightRecorder
	buf    bytes.Buffer
}

func (h *logHandler) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	h.tee.lines.Add(1)
	if r.Level >= slog.LevelWarn {
		h.tee.mu.Lock()
		if h.tee.flight != nil {
			h.tee.buf.Reset()
			if h.line.Handle(ctx, r) == nil {
				h.tee.flight.RecordLog(r.Time.UnixNano(), r.Level, h.tee.buf.Bytes())
			}
		}
		h.tee.mu.Unlock()
	}
	return err
}

func (h *logHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return &logHandler{Handler: h.Handler.WithAttrs(as), line: h.line.WithAttrs(as), tee: h.tee}
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	return &logHandler{Handler: h.Handler.WithGroup(name), line: h.line.WithGroup(name), tee: h.tee}
}

// LogLines returns how many lines lg's logger family has written: the
// logger NewLogger built and every logger With derived from it. It is 0
// for a logger NewLogger did not build.
func LogLines(lg *slog.Logger) uint64 {
	if h, ok := lg.Handler().(*logHandler); ok {
		return h.tee.lines.Load()
	}
	return 0
}

// AttachFlight tees every warn+ record of lg's logger family into fr:
// the record's time and level, and its message and fields in text form.
// A logger NewLogger did not build is left as it is.
func AttachFlight(lg *slog.Logger, fr *FlightRecorder) {
	if h, ok := lg.Handler().(*logHandler); ok {
		h.tee.mu.Lock()
		h.tee.flight = fr
		h.tee.mu.Unlock()
	}
}

// DiscardLogger returns a logger that writes nothing and reports every
// level disabled. Configs install it where their Logger is nil.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// LogSampler rate-limits hot-path logging: Allow admits the first call
// and every Nth thereafter. Safe for concurrent callers; a nil sampler
// admits everything. Typical use gates a per-chunk debug line:
//
//	if lg.Enabled(ctx, slog.LevelDebug) && sampler.Allow() { lg.Debug(...) }
type LogSampler struct {
	every uint64
	n     atomic.Uint64
}

// NewLogSampler builds a sampler admitting one call in every (every<=1
// admits all).
func NewLogSampler(every uint64) *LogSampler {
	if every == 0 {
		every = 1
	}
	return &LogSampler{every: every}
}

// Allow reports whether this call is in the admitted sample.
func (s *LogSampler) Allow() bool {
	if s == nil {
		return true
	}
	return (s.n.Add(1)-1)%s.every == 0
}

// Count returns how many calls Allow has seen (0 on nil).
func (s *LogSampler) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.n.Load()
}
