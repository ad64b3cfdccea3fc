// Package graph provides the synthetic graph substrate for the GraphBig
// workload family: an R-MAT (recursive-matrix) power-law generator and a
// compressed-sparse-row representation whose arrays the workload kernels
// traverse.
//
// The paper evaluates IBM GraphBig on the LDBC "8-5fb" Facebook-like
// dataset; that dataset is external, so we substitute R-MAT graphs with the
// canonical (0.57, 0.19, 0.19, 0.05) parameters, which produce the same
// skewed-degree, community-structured topology family that makes graph
// kernels' memory behaviour irregular (DESIGN.md §3).
package graph

import (
	"fmt"
	"slices"

	"rmcc/internal/rng"
)

// CSR is a directed graph in compressed-sparse-row form. The three arrays
// are exactly what kernels traverse — and therefore what the simulator sees
// as memory accesses.
type CSR struct {
	N       int      // vertices
	Offsets []uint64 // len N+1; Offsets[v]..Offsets[v+1] index Targets
	Targets []uint32 // len M; neighbor lists, sorted per vertex
}

// M returns the edge count.
func (g *CSR) M() int { return len(g.Targets) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns v's adjacency slice (shared storage; do not mutate).
func (g *CSR) Neighbors(v int) []uint32 {
	return g.Targets[g.Offsets[v]:g.Offsets[v+1]]
}

// RMATParams configure the recursive-matrix generator.
type RMATParams struct {
	ScaleLog2  int     // vertices = 1 << ScaleLog2
	EdgeFactor int     // edges = EdgeFactor * vertices
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
}

// DefaultRMAT returns the canonical Graph500-style parameters.
func DefaultRMAT(scale, edgeFactor int) RMATParams {
	return RMATParams{ScaleLog2: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19}
}

// GenerateRMAT builds a CSR graph deterministically from the seed. It
// panics on a scale outside [1, 30] and on quadrant probabilities that are
// negative, NaN or sum past 1.
func GenerateRMAT(p RMATParams, seed uint64) *CSR {
	if p.ScaleLog2 <= 0 || p.ScaleLog2 > 30 {
		panic(fmt.Sprintf("graph: scale %d out of range", p.ScaleLog2))
	}
	if !(p.A >= 0 && p.B >= 0 && p.C >= 0) || 1-p.A-p.B-p.C < 0 {
		panic(fmt.Sprintf("graph: RMAT probabilities %v/%v/%v must be non-negative and sum to at most 1", p.A, p.B, p.C))
	}
	n := 1 << uint(p.ScaleLog2)
	m := n * p.EdgeFactor
	r := rng.New(seed)
	// Each level draws a 53-bit v and picks a quadrant by the cumulative
	// sums A, A+B and (A+B)+C, formed in that order so that a seed keeps
	// its graph: top-left below tA, top-right (dst bit) below tAB,
	// bottom-left (src bit) below tABC, bottom-right (both bits) above.
	// Non-negative probabilities make the thresholds ascend, so the src
	// bit is v >= tAB and the dst bit the parity of the three compares.
	tA, tAB, tABC := rng.Threshold(p.A), rng.Threshold(p.A+p.B), rng.Threshold(p.A+p.B+p.C)
	type edge struct{ src, dst uint32 }
	edges := make([]edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst uint32
		for range p.ScaleLog2 {
			v := r.Uint64() >> 11
			s := b2u(v >= tAB)
			src = src<<1 | s
			dst = dst<<1 | (b2u(v >= tA) ^ s ^ b2u(v >= tABC))
		}
		if src == dst {
			dst = (dst + 1) & uint32(n-1) // avoid self loops
		}
		edges = append(edges, edge{src, dst})
	}
	// Build CSR via counting sort on source; next[v] is where v's next
	// target goes.
	offsets := make([]uint64, n+1)
	for _, e := range edges {
		offsets[e.src+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	next := slices.Clone(offsets[:n])
	targets := make([]uint32, len(edges))
	for _, e := range edges {
		targets[next[e.src]] = e.dst
		next[e.src]++
	}
	g := &CSR{N: n, Offsets: offsets, Targets: targets}
	// Sort each adjacency list: kernels like triangle counting rely on it.
	for v := 0; v < n; v++ {
		slices.Sort(g.Neighbors(v))
	}
	return g
}

// b2u is 1 for true and 0 for false; the compiler emits a SETcc, not a
// branch.
func b2u(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}

// MaxDegreeVertex returns the vertex with the highest out-degree — a good
// BFS/DFS/SSSP root in a power-law graph (it sits in the giant component).
func (g *CSR) MaxDegreeVertex() int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}
