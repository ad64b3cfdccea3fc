package workload

import (
	"rmcc/internal/graph"
	"rmcc/internal/rng"
)

// graphBase holds the shared CSR arrays and their virtual placement. The
// three CSR arrays live at fixed bases; each kernel adds its own property
// arrays behind them.
type graphBase struct {
	g       *graph.CSR
	lay     *layout
	offBase uint64 // Offsets: 8 B per element, N+1 elements
	tgtBase uint64 // Targets: 4 B per element, M elements
}

func newGraphBase(g *graph.CSR) graphBase {
	lay := newLayout()
	return graphBase{
		g:       g,
		lay:     lay,
		offBase: lay.region(uint64(g.N+1) * 8),
		tgtBase: lay.region(uint64(g.M()) * 4),
	}
}

func (b *graphBase) offAddr(v int) uint64    { return b.offBase + uint64(v)*8 }
func (b *graphBase) tgtAddr(e uint64) uint64 { return b.tgtBase + e*4 }

// prop reserves an 8-byte-per-vertex property array and returns its base.
func (b *graphBase) prop() uint64 { return b.lay.region(uint64(b.g.N) * 8) }

// edgeProp reserves a 4-byte-per-edge property array.
func (b *graphBase) edgeProp() uint64 { return b.lay.region(uint64(b.g.M()) * 4) }

func (b *graphBase) FootprintBytes() uint64 { return b.lay.footprint() }

// --- pageRank ---

// PageRank iterates rank propagation: per vertex, gather the ranks of all
// neighbors (irregular reads), write the new rank. The classic
// high-counter-miss GraphBig kernel.
type PageRank struct {
	graphBase
	rankA, rankB uint64
}

// NewPageRank builds the kernel over g.
func NewPageRank(g *graph.CSR) *PageRank {
	b := newGraphBase(g)
	return &PageRank{graphBase: b, rankA: b.prop(), rankB: b.prop()}
}

// Name implements Workload.
func (p *PageRank) Name() string { return "pageRank" }

// Run implements Workload.
func (p *PageRank) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	src, dst := p.rankA, p.rankB
	for iter := 0; ; iter++ {
		for v := 0; v < p.g.N && !e.stopped; v++ {
			e.load(p.offAddr(v), 2)
			e.load(p.offAddr(v+1), 1)
			start, end := p.g.Offsets[v], p.g.Offsets[v+1]
			for ei := start; ei < end; ei++ {
				u := p.g.Targets[ei]
				e.load(p.tgtAddr(ei), 1)
				e.load(src+uint64(u)*8, 2) // rank[u]: irregular
			}
			e.store(dst+uint64(v)*8, 4)
		}
		if e.stopped {
			return
		}
		src, dst = dst, src
	}
}

// --- graphColoring ---

// GraphColoring greedily colors vertices over repeated rounds, reading
// every neighbor's color (irregular) before writing its own.
type GraphColoring struct {
	graphBase
	colorBase uint64
}

// NewGraphColoring builds the kernel over g.
func NewGraphColoring(g *graph.CSR) *GraphColoring {
	b := newGraphBase(g)
	return &GraphColoring{graphBase: b, colorBase: b.prop()}
}

// Name implements Workload.
func (c *GraphColoring) Name() string { return "graphColoring" }

// Run implements Workload.
func (c *GraphColoring) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	colors := make([]int32, c.g.N)
	var used [1024]bool
	for {
		// Reset phase: streaming stores (a real phase transition).
		for v := 0; v < c.g.N && !e.stopped; v++ {
			colors[v] = -1
			e.store(c.colorBase+uint64(v)*8, 1)
		}
		for v := 0; v < c.g.N && !e.stopped; v++ {
			e.load(c.offAddr(v), 2)
			e.load(c.offAddr(v+1), 1)
			start, end := c.g.Offsets[v], c.g.Offsets[v+1]
			maxC := int32(0)
			for ei := start; ei < end; ei++ {
				u := c.g.Targets[ei]
				e.load(c.tgtAddr(ei), 1)
				e.load(c.colorBase+uint64(u)*8, 2)
				if cu := colors[u]; cu >= 0 && cu < int32(len(used)) {
					used[cu] = true
					if cu >= maxC {
						maxC = cu + 1
					}
				}
			}
			pick := maxC
			for k := int32(0); k < maxC; k++ {
				if !used[k] {
					pick = k
					break
				}
			}
			for k := int32(0); k <= maxC && int(k) < len(used); k++ {
				used[k] = false
			}
			colors[v] = pick
			e.store(c.colorBase+uint64(v)*8, 3)
		}
		if e.stopped {
			return
		}
	}
}

// --- connectedComp ---

// ConnectedComp runs label propagation until a fixed point, then restarts.
type ConnectedComp struct {
	graphBase
	labelBase uint64
}

// NewConnectedComp builds the kernel over g.
func NewConnectedComp(g *graph.CSR) *ConnectedComp {
	b := newGraphBase(g)
	return &ConnectedComp{graphBase: b, labelBase: b.prop()}
}

// Name implements Workload.
func (c *ConnectedComp) Name() string { return "connectedComp" }

// Run implements Workload.
func (c *ConnectedComp) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	labels := make([]uint32, c.g.N)
	for {
		for v := 0; v < c.g.N && !e.stopped; v++ {
			labels[v] = uint32(v)
			e.store(c.labelBase+uint64(v)*8, 1)
		}
		for changed := true; changed && !e.stopped; {
			changed = false
			for v := 0; v < c.g.N && !e.stopped; v++ {
				e.load(c.labelBase+uint64(v)*8, 2)
				best := labels[v]
				e.load(c.offAddr(v), 1)
				e.load(c.offAddr(v+1), 1)
				start, end := c.g.Offsets[v], c.g.Offsets[v+1]
				for ei := start; ei < end; ei++ {
					u := c.g.Targets[ei]
					e.load(c.tgtAddr(ei), 1)
					e.load(c.labelBase+uint64(u)*8, 1)
					if labels[u] < best {
						best = labels[u]
					}
				}
				if best < labels[v] {
					labels[v] = best
					changed = true
					e.store(c.labelBase+uint64(v)*8, 2)
				}
			}
		}
		if e.stopped {
			return
		}
	}
}

// --- degreeCentr ---

// DegreeCentr computes in/out degree centrality: sequential offset reads
// plus a scattered read-modify-write of inDeg[target] per edge.
type DegreeCentr struct {
	graphBase
	outBase, inBase uint64
}

// NewDegreeCentr builds the kernel over g.
func NewDegreeCentr(g *graph.CSR) *DegreeCentr {
	b := newGraphBase(g)
	return &DegreeCentr{graphBase: b, outBase: b.prop(), inBase: b.prop()}
}

// Name implements Workload.
func (d *DegreeCentr) Name() string { return "degreeCentr" }

// Run implements Workload.
func (d *DegreeCentr) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	for {
		for v := 0; v < d.g.N && !e.stopped; v++ {
			e.store(d.inBase+uint64(v)*8, 1)
		}
		for v := 0; v < d.g.N && !e.stopped; v++ {
			e.load(d.offAddr(v), 1)
			e.load(d.offAddr(v+1), 1)
			e.store(d.outBase+uint64(v)*8, 2)
			start, end := d.g.Offsets[v], d.g.Offsets[v+1]
			for ei := start; ei < end; ei++ {
				u := d.g.Targets[ei]
				e.load(d.tgtAddr(ei), 1)
				e.load(d.inBase+uint64(u)*8, 1) // read inDeg[u]
				// The compiler keeps hot accumulators in registers and
				// write-combines; commit roughly every fourth update.
				if ei&3 == 0 {
					e.store(d.inBase+uint64(u)*8, 1)
				}
			}
		}
		if e.stopped {
			return
		}
	}
}

// --- DFS ---

// DFS runs depth-first traversals from high-degree roots, covering all
// components, then restarts.
type DFS struct {
	graphBase
	visitBase, stackBase uint64
}

// NewDFS builds the kernel over g.
func NewDFS(g *graph.CSR) *DFS {
	b := newGraphBase(g)
	return &DFS{graphBase: b, visitBase: b.prop(), stackBase: b.prop()}
}

// Name implements Workload.
func (d *DFS) Name() string { return "DFS" }

// Run implements Workload.
func (d *DFS) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	r := rng.New(seed)
	visited := make([]bool, d.g.N)
	stack := make([]int32, 0, d.g.N)
	for {
		for i := range visited {
			visited[i] = false
		}
		root := int(r.Uint64n(uint64(d.g.N)))
		next := 0 // sequential restart scan cursor
		for !e.stopped {
			stack = append(stack[:0], int32(root))
			e.store(d.stackBase, 2)
			for len(stack) > 0 && !e.stopped {
				v := int(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				e.load(d.stackBase+uint64(len(stack))*8, 1)
				e.load(d.visitBase+uint64(v)*8, 1)
				if visited[v] {
					continue
				}
				visited[v] = true
				e.store(d.visitBase+uint64(v)*8, 2)
				e.load(d.offAddr(v), 1)
				e.load(d.offAddr(v+1), 1)
				start, end := d.g.Offsets[v], d.g.Offsets[v+1]
				for ei := start; ei < end; ei++ {
					u := d.g.Targets[ei]
					e.load(d.tgtAddr(ei), 1)
					e.load(d.visitBase+uint64(u)*8, 1)
					if !visited[u] {
						stack = append(stack, int32(u))
						e.store(d.stackBase+uint64(len(stack)-1)*8, 1)
					}
				}
			}
			// Next component: scan for an unvisited vertex.
			for next < d.g.N {
				e.load(d.visitBase+uint64(next)*8, 1)
				if !visited[next] {
					break
				}
				next++
			}
			if next >= d.g.N {
				break // all components done; restart traversal
			}
			root = next
		}
		if e.stopped {
			return
		}
	}
}

// --- BFS ---

// BFS runs level-synchronous breadth-first traversals.
type BFS struct {
	graphBase
	visitBase, frontABase, frontBBase uint64
}

// NewBFS builds the kernel over g.
func NewBFS(g *graph.CSR) *BFS {
	b := newGraphBase(g)
	return &BFS{graphBase: b, visitBase: b.prop(), frontABase: b.prop(), frontBBase: b.prop()}
}

// Name implements Workload.
func (b *BFS) Name() string { return "BFS" }

// Run implements Workload.
func (b *BFS) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	r := rng.New(seed)
	visited := make([]bool, b.g.N)
	frontier := make([]int32, 0, b.g.N)
	next := make([]int32, 0, b.g.N)
	for {
		for i := range visited {
			visited[i] = false
		}
		root := int(r.Uint64n(uint64(b.g.N)))
		visited[root] = true
		frontier = append(frontier[:0], int32(root))
		curBase, nextBase := b.frontABase, b.frontBBase
		e.store(curBase, 2)
		for len(frontier) > 0 && !e.stopped {
			next = next[:0]
			for fi, v32 := range frontier {
				if e.stopped {
					break
				}
				v := int(v32)
				e.load(curBase+uint64(fi)*8, 1)
				e.load(b.offAddr(v), 1)
				e.load(b.offAddr(v+1), 1)
				start, end := b.g.Offsets[v], b.g.Offsets[v+1]
				for ei := start; ei < end; ei++ {
					u := b.g.Targets[ei]
					e.load(b.tgtAddr(ei), 1)
					e.load(b.visitBase+uint64(u)*8, 1)
					if !visited[u] {
						visited[u] = true
						e.store(b.visitBase+uint64(u)*8, 1)
						next = append(next, int32(u))
						e.store(nextBase+uint64(len(next)-1)*8, 1)
					}
				}
			}
			frontier, next = next, frontier
			curBase, nextBase = nextBase, curBase
		}
		if e.stopped {
			return
		}
	}
}

// --- triangleCount ---

// TriangleCount intersects sorted adjacency lists pairwise — long
// sequential runs over two lists whose bases are data-dependent.
type TriangleCount struct {
	graphBase
	countBase uint64
}

// NewTriangleCount builds the kernel over g.
func NewTriangleCount(g *graph.CSR) *TriangleCount {
	b := newGraphBase(g)
	return &TriangleCount{graphBase: b, countBase: b.prop()}
}

// Name implements Workload.
func (t *TriangleCount) Name() string { return "triangleCount" }

// intersectCap bounds the merge-intersection work per neighbor pair.
// Power-law hubs otherwise make the kernel quadratic in the hub degree and
// the simulation window never leaves one (fully cached) adjacency list;
// real triangle counters bound this the same way by intersecting from the
// smaller list or using hash probes.
const intersectCap = 256

// Run implements Workload.
func (t *TriangleCount) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	// Process vertices in a hashed order so the access stream mixes hub
	// and leaf adjacency lists instead of dwelling on vertex 0's hub.
	stride := 0x9e3779b1 % uint64(t.g.N)
	if stride == 0 {
		stride = 1
	}
	for {
		for k := 0; k < t.g.N && !e.stopped; k++ {
			v := int((uint64(k)*stride + seed) % uint64(t.g.N))
			e.load(t.offAddr(v), 1)
			e.load(t.offAddr(v+1), 1)
			vStart, vEnd := t.g.Offsets[v], t.g.Offsets[v+1]
			triangles := uint64(0)
			for ei := vStart; ei < vEnd && !e.stopped; ei++ {
				u := int(t.g.Targets[ei])
				e.load(t.tgtAddr(ei), 1)
				if u <= v {
					continue
				}
				e.load(t.offAddr(u), 1)
				e.load(t.offAddr(u+1), 1)
				// Merge-intersect adj(v) and adj(u), bounded per pair.
				i, j := vStart, t.g.Offsets[u]
				uEnd := t.g.Offsets[u+1]
				steps := 0
				for i < vEnd && j < uEnd && steps < intersectCap && !e.stopped {
					a, b := t.g.Targets[i], t.g.Targets[j]
					e.load(t.tgtAddr(i), 1)
					e.load(t.tgtAddr(j), 1)
					steps++
					switch {
					case a == b:
						triangles++
						i++
						j++
					case a < b:
						i++
					default:
						j++
					}
				}
				// Accumulate the running count (read-modify-write) so hub
				// vertices with huge adjacency lists still mix in stores.
				e.load(t.countBase+uint64(v)*8, 1)
				e.store(t.countBase+uint64(v)*8, 2)
			}
			_ = triangles
		}
		if e.stopped {
			return
		}
	}
}

// --- shortestPath ---

// ShortestPath runs Bellman-Ford rounds: edge relaxations with scattered
// distance reads and writes.
type ShortestPath struct {
	graphBase
	distBase, weightBase uint64
}

// NewShortestPath builds the kernel over g.
func NewShortestPath(g *graph.CSR) *ShortestPath {
	b := newGraphBase(g)
	return &ShortestPath{graphBase: b, distBase: b.prop(), weightBase: b.edgeProp()}
}

// Name implements Workload.
func (s *ShortestPath) Name() string { return "shortestPath" }

// weight derives a deterministic edge weight (the array is synthetic but
// its *accesses* are real).
func edgeWeight(ei uint64) uint32 { return uint32(ei*2654435761)%63 + 1 }

// Run implements Workload.
func (s *ShortestPath) Run(seed uint64, sink Sink) {
	e := &emitter{sink: sink}
	r := rng.New(seed)
	const inf = ^uint32(0)
	dist := make([]uint32, s.g.N)
	for {
		root := int(r.Uint64n(uint64(s.g.N)))
		for v := range dist {
			dist[v] = inf
		}
		dist[root] = 0
		for v := 0; v < s.g.N && !e.stopped; v++ {
			e.store(s.distBase+uint64(v)*8, 1)
		}
		for changed := true; changed && !e.stopped; {
			changed = false
			for v := 0; v < s.g.N && !e.stopped; v++ {
				e.load(s.distBase+uint64(v)*8, 1)
				if dist[v] == inf {
					continue
				}
				e.load(s.offAddr(v), 1)
				e.load(s.offAddr(v+1), 1)
				start, end := s.g.Offsets[v], s.g.Offsets[v+1]
				for ei := start; ei < end; ei++ {
					u := s.g.Targets[ei]
					e.load(s.tgtAddr(ei), 1)
					e.load(s.weightBase+ei*4, 1)
					e.load(s.distBase+uint64(u)*8, 1)
					if nd := dist[v] + edgeWeight(ei); nd < dist[u] {
						dist[u] = nd
						changed = true
						e.store(s.distBase+uint64(u)*8, 1)
					}
				}
			}
		}
		if e.stopped {
			return
		}
	}
}
