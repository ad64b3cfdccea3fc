// Package workload implements the paper's eleven benchmarks as
// instrumented kernels: eight GraphBig-style graph analytics kernels over
// R-MAT graphs (pageRank, graphColoring, connectedComp, degreeCentr, DFS,
// BFS, triangleCount, shortestPath) plus access-pattern-faithful stand-ins
// for PARSEC canneal, SPEC omnetpp and SPEC mcf.
//
// Each kernel really runs its algorithm over real data structures and
// emits the virtual address of every load and store it performs, together
// with the count of non-memory instructions since the previous access. The
// simulator consumes that stream; the kernel never sees simulated time.
package workload

import (
	"fmt"
	"sync"

	"rmcc/internal/graph"
)

// Access is one memory reference a workload issues.
type Access struct {
	Addr  uint64 // virtual byte address
	Write bool
	Gap   uint8 // non-memory instructions executed since the last access
}

// Sink consumes the access stream; returning false stops the workload.
type Sink func(Access) bool

// Workload is a deterministic access-stream generator. Run loops the
// algorithm indefinitely — the driver decides how long to simulate by
// returning false from the sink.
type Workload interface {
	Name() string
	// FootprintBytes approximates the virtual footprint, used to size
	// simulated physical memory.
	FootprintBytes() uint64
	Run(seed uint64, sink Sink)
}

// emitter wraps a sink with stop-flag plumbing so kernels read cleanly.
type emitter struct {
	sink    Sink
	stopped bool
}

// gapScale converts the kernels' relative gap weights into realistic
// instruction counts (~10-20 instructions per memory access on average,
// matching the memory intensity of the paper's benchmark families; the
// kernels' raw weights alone would model an unrealistically bandwidth-bound
// machine where no latency optimization can matter).
const gapScale = 12

func (e *emitter) emit(addr uint64, write bool, gap uint8) bool {
	if e.stopped {
		return false
	}
	if !e.sink(Access{Addr: addr, Write: write, Gap: gap * gapScale}) {
		e.stopped = true
		return false
	}
	return true
}

func (e *emitter) load(addr uint64, gap uint8) bool  { return e.emit(addr, false, gap) }
func (e *emitter) store(addr uint64, gap uint8) bool { return e.emit(addr, true, gap) }

// layout assigns virtual base addresses to a workload's arrays, aligned to
// 2 MiB so huge-page mappings start clean.
type layout struct{ next uint64 }

const regionAlign = 2 << 20

func newLayout() *layout {
	return &layout{next: regionAlign} // keep page 0 unused
}

func (l *layout) region(bytes uint64) uint64 {
	base := l.next
	l.next += (bytes + regionAlign - 1) &^ (regionAlign - 1)
	// Guard gap between arrays so prefetch-like sequential patterns don't
	// silently run from one array into the next.
	l.next += regionAlign
	return base
}

func (l *layout) footprint() uint64 { return l.next }

// Size selects workload scale.
type Size int

// Sizes. SizeTest keeps unit tests fast; SizeSmall drives -short bench
// runs; SizeFull is the default experiment scale (footprints well beyond
// the 8 MB LLC and the counter cache's 16 MB coverage).
const (
	SizeTest Size = iota
	SizeSmall
	SizeFull
)

// ParseSize maps the size names "test", "small" and "full" (as flags and
// the rmccd wire spell them) to sizes.
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "small":
		return SizeSmall, nil
	case "full":
		return SizeFull, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// graphScale returns R-MAT scale/edge-factor per size.
func graphScale(s Size) (scale, ef int) {
	switch s {
	case SizeTest:
		return 12, 8 // 4 K vertices
	case SizeSmall:
		// 1 M vertices: per-vertex property arrays (8 MB each) exceed the
		// lifetime counter cache's 4 MB reach and the LLC, keeping the
		// irregular gathers in the paper's counter-miss regime while
		// staying fast to generate.
		return 20, 8
	default:
		// 4 M vertices, ~350 MB of arrays: property arrays at 32 MB are
		// well beyond even the detailed 128 KB counter cache's 16 MB
		// coverage.
		return 22, 8
	}
}

// PaperNames lists the paper's eleven benchmarks in figure order.
func PaperNames() []string {
	return []string{
		"pageRank", "graphColoring", "connectedComp", "degreeCentr",
		"DFS", "BFS", "triangleCount", "shortestPath",
		"canneal", "omnetpp", "mcf",
	}
}

// Names lists every available workload: the paper's eleven in figure
// order, then registered extras (e.g. the sidechannel adversaries) in
// registration order.
func Names() []string {
	names := PaperNames()
	extrasMu.Lock()
	defer extrasMu.Unlock()
	for _, e := range extras {
		names = append(names, e.name)
	}
	return names
}

// extraEntry is one registered non-paper workload constructor.
type extraEntry struct {
	name  string
	build func(Size, uint64) Workload
}

var (
	extrasMu sync.Mutex
	extras   []extraEntry
)

// RegisterExtra adds a workload constructor under name, making it visible
// to Names, Suite and ByName (and therefore to every driver that resolves
// workloads by name: rmccsim, rmccd sessions, rmcc-loadgen shortcuts).
// Intended for package init functions; panics on a duplicate or paper
// name. The constructor must be deterministic per (size, seed).
func RegisterExtra(name string, build func(Size, uint64) Workload) {
	if build == nil {
		panic("workload: RegisterExtra with nil constructor")
	}
	for _, n := range PaperNames() {
		if n == name {
			panic("workload: RegisterExtra shadows paper workload " + name)
		}
	}
	extrasMu.Lock()
	defer extrasMu.Unlock()
	for _, e := range extras {
		if e.name == name {
			panic("workload: duplicate RegisterExtra " + name)
		}
	}
	extras = append(extras, extraEntry{name: name, build: build})
}

// graphCache memoizes generated R-MAT graphs per (size, seed): generation
// at experiment scale takes seconds and the experiment harness builds many
// suites over the same dataset. Graphs are immutable after generation, so
// sharing is safe (kernels never mutate the CSR).
var (
	graphCacheMu sync.Mutex
	graphCache   = map[[2]uint64]*graph.CSR{}
)

func sharedGraph(size Size, seed uint64) *graph.CSR {
	key := [2]uint64{uint64(size), seed}
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[key]; ok {
		return g
	}
	scale, ef := graphScale(size)
	g := graph.GenerateRMAT(graph.DefaultRMAT(scale, ef), seed)
	graphCache[key] = g
	return g
}

// Suite builds all eleven paper workloads at the given size, followed by
// any registered extras. The eight graph kernels share one R-MAT graph
// (like GraphBig running its kernels over one loaded dataset).
func Suite(size Size, seed uint64) []Workload {
	g := sharedGraph(size, seed)
	ws := []Workload{
		NewPageRank(g),
		NewGraphColoring(g),
		NewConnectedComp(g),
		NewDegreeCentr(g),
		NewDFS(g),
		NewBFS(g),
		NewTriangleCount(g),
		NewShortestPath(g),
		NewCanneal(size),
		NewOmnetpp(size),
		NewMCF(size),
	}
	extrasMu.Lock()
	defer extrasMu.Unlock()
	for _, e := range extras {
		ws = append(ws, e.build(size, seed))
	}
	return ws
}

// ByName returns the named workload from a freshly built suite. Registered
// extras resolve directly (no R-MAT graph generation).
func ByName(size Size, seed uint64, name string) (Workload, bool) {
	extrasMu.Lock()
	for _, e := range extras {
		if e.name == name {
			b := e.build
			extrasMu.Unlock()
			return b(size, seed), true
		}
	}
	extrasMu.Unlock()
	for _, w := range Suite(size, seed) {
		if w.Name() == name {
			return w, true
		}
	}
	return nil, false
}
