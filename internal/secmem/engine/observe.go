package engine

import "rmcc/internal/obs"

// This file attaches the per-access event tracer (internal/obs). The hot
// paths keep incrementing the plain Stats fields, which are the run's
// numbers (Stats()/ResetStats() and every rendered table read them); a
// nil tracer (the default) keeps every emit site a single predicted
// branch, so the read-hit path stays allocation-free either way
// (BenchmarkEngineReadHitObserved enforces 0 B/op with one attached).

// SetTracer attaches tr (nil detaches) to the controller and its
// memoization tables. Events flow until detached; the tracer must belong
// to this controller alone (the engine is single-threaded).
func (mc *MC) SetTracer(tr *obs.Tracer) {
	mc.trace = tr
	if mc.l0Table != nil {
		mc.l0Table.SetTracer(tr, 0)
	}
	if mc.l1Table != nil {
		mc.l1Table.SetTracer(tr, 1)
	}
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (mc *MC) Tracer() *obs.Tracer { return mc.trace }
