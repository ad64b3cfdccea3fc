package main

import (
	"errors"
	"reflect"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// lifetime-canneal: a warm functional (Pintool-analog) simulation in rmcc
// mode, stepped one chunk of canneal accesses per request — the inner loop
// of every lifetime figure cell and of an rmccd session's replay.
const (
	lifetimeChunk      = 8 << 10 // accesses per request
	lifetimeWarmChunks = 64      // untimed requests before measuring
	lifetimeSize       = workload.SizeSmall
)

type lifetimeRunner struct {
	w      workload.Workload
	cfg    sim.LifetimeConfig
	lt     *sim.Lifetime
	stream *sim.AccessStream
	buf    []workload.Access

	// Traced runs only: the controller's captured inputs and the shadow
	// controller they are replayed on.
	capture *opCapture
	shadow  *engine.MC
}

// lifetimeConfig is the configuration rmccd resolves for an rmcc-mode,
// Morphable session with this seed.
func lifetimeConfig(seed uint64) sim.LifetimeConfig {
	eng := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	eng.InitSeed = seed
	cfg := sim.DefaultLifetimeConfig(eng)
	cfg.Seed = seed
	return cfg
}

func setupLifetime(seed uint64, traced bool) (runner, error) {
	w := workload.NewCanneal(lifetimeSize)
	r := &lifetimeRunner{w: w, cfg: lifetimeConfig(seed),
		buf: make([]workload.Access, lifetimeChunk)}
	cfg := r.cfg
	if traced {
		r.capture = &opCapture{}
		cfg.Tracer = newSinkTracer(r.capture)
	}
	lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		return nil, err
	}
	r.lt = lt
	if traced {
		if r.shadow, err = engine.NewChecked(lt.MC().Config()); err != nil {
			return nil, err
		}
	}
	r.stream = sim.NewAccessStream(func(sink workload.Sink) { w.Run(seed, sink) })
	return r, nil
}

// fill pulls the next chunk of the access stream.
func (r *lifetimeRunner) fill() error {
	for i := range r.buf {
		a, ok := r.stream.Next()
		if !ok {
			return errors.New("access stream ended")
		}
		r.buf[i] = a
	}
	return nil
}

func (r *lifetimeRunner) warm() error {
	for i := 0; i < lifetimeWarmChunks; i++ {
		if _, _, err := r.request(nil, 0); err != nil {
			return err
		}
	}
	return nil
}

func (r *lifetimeRunner) request(tr *obs.SpanTracer, parent uint64) (int, time.Duration, error) {
	var err error
	timed(tr, spanWorkload, parent, func() { err = r.fill() })
	if err != nil {
		return 0, 0, err
	}
	d := timeCall(tr, parent, func() {
		for _, a := range r.buf {
			r.lt.Step(a)
		}
	})
	if r.shadow != nil {
		timed(tr, spanEngine, parent, func() { replayOps(r.shadow, r.capture.ops) })
		r.capture.ops = r.capture.ops[:0]
	}
	return len(r.buf), d, nil
}

func (r *lifetimeRunner) verify() error {
	st := r.lt.MC().Stats()
	if r.shadow != nil && !reflect.DeepEqual(r.shadow.Stats(), st) {
		return errors.New("shadow controller diverged from the lifetime's controller")
	}
	return checkEngine(st, r.lt.Accesses())
}

func (r *lifetimeRunner) pinned() any { return r.lt.Result() }

func (r *lifetimeRunner) classes() int { return 1 }

func (r *lifetimeRunner) engineStats() (engine.Stats, uint64) {
	return r.lt.MC().Stats(), r.lt.Accesses()
}

// heapBytes is what the lifetime, its access stream and the canneal
// generator hold.
func (r *lifetimeRunner) heapBytes() (uint64, error) {
	return heapDelta(func() error {
		r.close()
		r.w, r.lt, r.stream = nil, nil, nil
		return nil
	})
}

func (r *lifetimeRunner) close() {
	if r.stream != nil {
		r.stream.Close()
	}
}
