package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"rmcc/internal/rng"
)

// referenceRMAT is GenerateRMAT before its quadrant walk compared integer
// thresholds, kept verbatim as a test oracle: one Float64 draw per level
// through a sequential switch, a counting sort on source, and a sort.Slice
// per adjacency list. GenerateRMAT must produce the same graph for every
// input it accepts.
func referenceRMAT(p RMATParams, seed uint64) *CSR {
	if p.ScaleLog2 <= 0 || p.ScaleLog2 > 30 {
		panic(fmt.Sprintf("graph: scale %d out of range", p.ScaleLog2))
	}
	n := 1 << uint(p.ScaleLog2)
	m := n * p.EdgeFactor
	r := rng.New(seed)
	d := 1 - p.A - p.B - p.C
	if d < 0 {
		panic("graph: RMAT probabilities exceed 1")
	}
	type edge struct{ src, dst uint32 }
	edges := make([]edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst uint32
		for bit := p.ScaleLog2 - 1; bit >= 0; bit-- {
			x := r.Float64()
			switch {
			case x < p.A:
				// top-left: neither bit set
			case x < p.A+p.B:
				dst |= 1 << uint(bit)
			case x < p.A+p.B+p.C:
				src |= 1 << uint(bit)
			default:
				src |= 1 << uint(bit)
				dst |= 1 << uint(bit)
			}
		}
		if src == dst {
			dst = (dst + 1) & uint32(n-1) // avoid self loops
		}
		edges = append(edges, edge{src, dst})
	}
	// Build CSR via counting sort on source.
	counts := make([]uint64, n+1)
	for _, e := range edges {
		counts[e.src+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	offsets := make([]uint64, n+1)
	copy(offsets, counts)
	targets := make([]uint32, len(edges))
	fill := make([]uint64, n)
	for _, e := range edges {
		targets[offsets[e.src]+fill[e.src]] = e.dst
		fill[e.src]++
	}
	g := &CSR{N: n, Offsets: offsets, Targets: targets}
	// Sort each adjacency list: kernels like triangle counting rely on it.
	for v := 0; v < n; v++ {
		adj := g.Targets[g.Offsets[v]:g.Offsets[v+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
	}
	return g
}

// rmatParamSets reach the threshold edges: the default set, thresholds
// that are exact binary fractions, a set where every draw lands top-left
// (so every edge takes the self-loop fix), an all-D set, and a set that
// sums to exactly 1 (D = 0).
var rmatParamSets = []struct {
	name    string
	a, b, c float64
}{
	{"default", 0.57, 0.19, 0.19},
	{"quarters", 0.25, 0.25, 0.25},
	{"all-A", 1, 0, 0},
	{"all-D", 0, 0, 0},
	{"sum-1", 0.5, 0.25, 0.25},
}

// assertSameGraph fails unless a and b have identical arrays.
func assertSameGraph(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) {
		t.Fatalf("%s: graph differs from the reference (N %d vs %d, M %d vs %d)",
			what, got.N, want.N, got.M(), want.M())
	}
}

// TestRMATMatchesReference compares GenerateRMAT with the oracle for
// scales 1-16, edge factors 1, 3 and 8, several seeds and every parameter
// set.
func TestRMATMatchesReference(t *testing.T) {
	for _, ps := range rmatParamSets {
		for scale := 1; scale <= 16; scale++ {
			for _, ef := range []int{1, 3, 8} {
				seeds := []uint64{0, 1, 2, 7, math.MaxUint64}
				if scale > 12 {
					seeds = []uint64{uint64(scale)} // the large scales cost most
				}
				for _, seed := range seeds {
					p := RMATParams{ScaleLog2: scale, EdgeFactor: ef, A: ps.a, B: ps.b, C: ps.c}
					what := fmt.Sprintf("%s scale %d ef %d seed %d", ps.name, scale, ef, seed)
					assertSameGraph(t, what, GenerateRMAT(p, seed), referenceRMAT(p, seed))
				}
			}
		}
	}
}

// FuzzRMATAgainstReference drives GenerateRMAT and the oracle with
// arbitrary small shapes, seeds and quadrant probabilities; inputs the
// generator rejects must panic in both.
func FuzzRMATAgainstReference(f *testing.F) {
	for _, ps := range rmatParamSets {
		f.Add(uint8(8), uint8(4), uint64(1), ps.a, ps.b, ps.c)
	}
	f.Add(uint8(3), uint8(2), uint64(5), 0.3, 0.7, 0.0)
	f.Fuzz(func(t *testing.T, scale, ef uint8, seed uint64, a, b, c float64) {
		p := RMATParams{ScaleLog2: int(scale%12) + 1, EdgeFactor: int(ef % 5), A: a, B: b, C: c}
		if !(a >= 0 && b >= 0 && c >= 0) || 1-a-b-c < 0 {
			if !panics(func() { GenerateRMAT(p, seed) }) {
				t.Fatalf("GenerateRMAT accepted %+v", p)
			}
			return
		}
		assertSameGraph(t, fmt.Sprintf("%+v seed %d", p, seed), GenerateRMAT(p, seed), referenceRMAT(p, seed))
	})
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRMATRejectsBadProbabilities: a negative or NaN quadrant probability
// panics, as a set summing past 1 does.
func TestRMATRejectsBadProbabilities(t *testing.T) {
	nan := math.NaN()
	for _, p := range []RMATParams{
		{A: -0.1, B: 0.5, C: 0.5},
		{A: 0.5, B: -1e-300, C: 0.25},
		{A: 0.5, B: 0.25, C: -0.5},
		{A: nan, B: 0.19, C: 0.19},
		{A: 0.57, B: nan, C: 0.19},
		{A: 0.57, B: 0.19, C: nan},
		{A: 0.6, B: 0.3, C: 0.2},
	} {
		p.ScaleLog2, p.EdgeFactor = 4, 2
		if !panics(func() { GenerateRMAT(p, 1) }) {
			t.Errorf("GenerateRMAT accepted A/B/C %v/%v/%v", p.A, p.B, p.C)
		}
	}
}

// TestRMATAllocs bounds a scale-12 build's allocations to the edge list,
// offsets, scatter cursors, targets and the CSR itself: nothing per vertex.
func TestRMATAllocs(t *testing.T) {
	p := DefaultRMAT(12, 8)
	if n := testing.AllocsPerRun(3, func() { GenerateRMAT(p, 1) }); n > 5 {
		t.Fatalf("GenerateRMAT(scale 12) made %.0f allocations, want at most 5", n)
	}
}
