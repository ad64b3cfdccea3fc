package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/engine"
)

// Stages of the spans the traced run records around the benchmark's calls
// into each layer. Every span of one request has the request span as its
// parent.
const (
	spanRequest  = "request"  // one closed-loop request
	spanWorkload = "workload" // access generation (internal/workload)
	spanDriver   = "driver"   // the user-visible call: Step loop or HTTP replay
	spanEngine   = "engine"   // the secure memory controller, replayed on a shadow MC
)

// spanRing is how many of the newest spans the span file keeps. Stage
// totals come from the stage histograms, which see every span.
const spanRing = 1 << 16

// newSpanTracer returns the traced run's span tracer and a latency
// histogram (µs) per stage.
func newSpanTracer() (*obs.SpanTracer, map[string]*obs.Histogram) {
	tr := obs.NewSpanTracer(spanRing)
	hists := map[string]*obs.Histogram{}
	for _, name := range []string{spanRequest, spanWorkload, spanDriver, spanEngine} {
		hists[name] = obs.NewHistogram(obs.Pow2Buckets(1, 24))
		tr.RegisterStage(name, hists[name])
	}
	return tr, hists
}

// writeSpans writes spans as JSON Lines.
func writeSpans(path string, spans []obs.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn under a child span of parent (no span on a nil tracer).
func timed(tr *obs.SpanTracer, name string, parent uint64, fn func()) {
	sp := tr.Start(name, "", parent)
	fn()
	sp.End()
}

// timeCall times fn, the user-visible call of a request, under a driver span.
func timeCall(tr *obs.SpanTracer, parent uint64, fn func()) time.Duration {
	sp := tr.Start(spanDriver, "", parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	return d
}

// mcOp is one request the cache hierarchy sent to the memory controller.
type mcOp struct {
	addr  uint64
	write bool
}

// opCapture is an obs.EventSink that records the controller's input
// stream: every Read and Write emits exactly one counter-cache hit or miss
// event carrying the data address, with V2 = 1 for writes.
type opCapture struct{ ops []mcOp }

func (c *opCapture) OnEvent(e obs.Event) {
	if e.Kind == obs.EvCtrCacheHit || e.Kind == obs.EvCtrCacheMiss {
		c.ops = append(c.ops, mcOp{addr: e.Addr, write: e.V2 == 1})
	}
}

// newSinkTracer returns an engine tracer whose sink is s. The ring is
// kept small: only the sink is read.
func newSinkTracer(s obs.EventSink) *obs.Tracer {
	t := obs.NewTracer(1024)
	t.SetSink(s)
	return t
}

// replayOps drives a shadow controller with captured requests, ticking
// the memoization epochs once per request as the lifetime driver does.
// Fed the full input stream of a lifetime run, the shadow ends in the
// same state as the original, so its time is the controller's share.
func replayOps(mc *engine.MC, ops []mcOp) {
	for _, op := range ops {
		if op.write {
			mc.Write(op.addr)
		} else {
			mc.Read(op.addr)
		}
		mc.OnEpochAccess()
	}
}
