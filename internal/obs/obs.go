// Package obs is the simulator's observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with fixed deterministic
// buckets) behind the /metrics pages of rmccd and rmcc-router, a
// ring-buffer event tracer for per-access lifecycle events, and per-run
// manifests. A finished simulator run reports through its result struct
// (sim.LifetimeResult, sim.DetailedResult), not a registry.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every instrument is nil-safe: calling
//     Inc/Add/Set/Observe/Emit on a nil *Counter, *Gauge, *Histogram, or
//     *Tracer is a no-op costing one branch. The engine hot paths stay
//     allocation-free whether or not a tracer is attached (enforced by
//     the engine's 0 B/op benchmarks).
//   - Deterministic exports. Metrics export sorted by (name, labels);
//     histogram buckets are fixed at construction; floats render with
//     strconv's shortest round-trip form. Two runs with equal counts
//     produce byte-identical Prometheus text whatever the goroutine
//     interleaving that produced the counts.
//   - No dependencies. Prometheus text exposition is ~40 lines of fmt; we
//     do not import a client library.
//
// The registry supports two registration styles:
//
//   - owned instruments (Counter/Gauge/Histogram) allocated by the
//     registry, updated with atomics — safe for concurrent writers;
//   - func-backed views (CounterFunc/GaugeFunc) that read live process
//     state (active sessions, uptime, span and log-line counts) only when
//     an export is cut.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// registration. Labels distinguish series under one metric name (e.g.
// traffic by kind, chain fetches by level).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricType enumerates exported metric kinds.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricType(%d)", int(t))
	}
}

// metric is one registered series.
type metric struct {
	name   string
	help   string
	typ    metricType
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	readU   func() uint64  // func-backed counter view
	readF   func() float64 // func-backed gauge view
}

// value returns the series' current scalar value (histograms export
// separately).
func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.gauge != nil:
		return m.gauge.Value()
	case m.readU != nil:
		return float64(m.readU())
	case m.readF != nil:
		return m.readF()
	}
	return 0
}

// labelString renders {k="v",...} or "" for an unlabeled series. Label
// values are escaped per the Prometheus text exposition format, which
// defines exactly three escapes — backslash, double quote, and newline.
// Go's %q is NOT equivalent: it also escapes tabs and non-ASCII as \t and
// \uXXXX, sequences the Prometheus parser does not interpret and would
// surface verbatim.
func (m *metric) labelString() string {
	if len(m.labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range m.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelEscaper applies the three escapes the Prometheus text format
// defines for quoted label values.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue escapes v for use inside a quoted Prometheus label
// value.
func escapeLabelValue(v string) string {
	return promLabelEscaper.Replace(v)
}

// Registry holds registered metrics. Registration and export are guarded by
// a mutex; updates to owned instruments are lock-free atomics. Func-backed
// views are read at export time only — attach them to state that is
// quiescent (or atomically readable) when exports are cut.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric // name + rendered labels → series
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// register adds a series, panicking on a duplicate (name, labels) pair —
// duplicate registration is a wiring bug, and panicking at construction
// keeps exports unambiguous.
func (r *Registry) register(m *metric) {
	key := m.name + m.labelString()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", key))
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns an owned, atomically-updated counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: typeCounter, labels: labels, counter: c})
	return c
}

// Gauge registers and returns an owned, atomically-updated gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, typ: typeGauge, labels: labels, gauge: g})
	return g
}

// Histogram registers and returns an owned histogram with the given fixed
// ascending bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, buckets []uint64, labels ...Label) *Histogram {
	h := newHistogram(buckets)
	r.register(&metric{name: name, help: help, typ: typeHistogram, labels: labels, hist: h})
	return h
}

// CounterFunc registers a counter view backed by fn, read at export time.
// This is the bridge from the pre-existing hand-rolled stats structs: the
// hot path keeps its plain field increment and fn exposes the field.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(&metric{name: name, help: help, typ: typeCounter, labels: labels, readU: fn})
}

// GaugeFunc registers a gauge view backed by fn, read at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, typ: typeGauge, labels: labels, readF: fn})
}

// snapshot returns the metrics sorted by (name, label string) — the
// deterministic export order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelString() < out[j].labelString()
	})
	return out
}

// --- Owned instruments ---

// Counter is a monotonically increasing uint64. Nil-safe: all methods on a
// nil receiver are no-ops, so call sites need no enabled check.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 (stored as atomic bits). Nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (compare-and-swap loop; safe for concurrent adders).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
