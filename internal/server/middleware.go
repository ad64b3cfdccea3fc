package server

import (
	"context"
	"net/http"
	"time"

	"rmcc/internal/obs"
)

// spanCtxKey carries the request's local trace context — the distributed
// trace ID (if any) plus the request span's ID as SpanID — so
// handler-level spans (replay, chunk stages) can parent under it and
// inherit the trace.
type spanCtxKey struct{}

// traceCtx returns the request's local trace context (zero when
// uninstrumented or untraced).
func traceCtx(ctx context.Context) obs.TraceContext {
	tc, _ := ctx.Value(spanCtxKey{}).(obs.TraceContext)
	return tc
}

// instrument wraps a handler with per-endpoint SLO accounting: a request
// span (record store + /debug/tracez), a latency histogram, and
// outcome-class counters. healthz and metrics are counted but not
// span-traced — poller traffic would drown the store in no-ops.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	const durHelp = "request latency in microseconds, by endpoint"
	const cntHelp = "requests served, by endpoint and status class"
	hist := s.reg.Histogram("rmccd_request_duration_us", durHelp,
		obs.Pow2Buckets(1, 24), obs.L("endpoint", endpoint))
	classes := map[string]*obs.Counter{}
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		classes[class] = s.reg.Counter("rmccd_requests_total", cntHelp,
			obs.L("class", class), obs.L("endpoint", endpoint))
	}
	traced := endpoint != "healthz" && endpoint != "metrics" &&
		endpoint != "statusz" && endpoint != "tracez" && endpoint != "flightz"
	return func(w http.ResponseWriter, r *http.Request) {
		tc, err := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
		if err != nil {
			// A malformed context is a client error, never a 5xx: reject
			// before any session work so tracing garbage can't propagate.
			// The parser checks the length before it decodes any hex.
			writeError(w, http.StatusBadRequest, obs.TraceHeader+": "+err.Error())
			if c := classes["4xx"]; c != nil {
				c.Inc()
			}
			return
		}
		var span obs.Span
		if traced {
			span = s.spans.StartRemote("http."+endpoint, r.URL.Path, tc)
			// Handlers see the trace rebased onto the request span: child
			// spans parent under SpanID and carry the same trace ID.
			tc.SpanID = span.ID()
			r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, tc))
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		hist.Observe(uint64(time.Since(start).Microseconds()))
		if c := classes[classOf(sw.code)]; c != nil {
			c.Inc()
		}
		if traced {
			span.End()
		}
	}
}

// classOf buckets a status code into the counter classes.
func classOf(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	default:
		return "2xx"
	}
}

// statusWriter captures the response status for outcome counters while
// passing Flush through — replay progress streaming depends on the
// Flusher check inside replayWriter still finding one.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
