// Package sim provides the two simulation drivers over the shared
// functional machinery:
//
//   - Lifetime: the Pintool analog — caches, TLBs, counters, memoization
//     tables, traffic accounting; no clock. Whole-application-lifetime
//     metrics (Figures 3, 4, 10, 15, 16, 19–22).
//   - Detailed: the Gem5 analog — adds an out-of-order-window CPU model and
//     the DDR4 timing channel to turn the same functional outcomes into
//     performance (Figures 12–14, 17, 18).
package sim

import (
	"rmcc/internal/mem/cache"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/workload"
)

// LifetimeConfig parameterizes a lifetime (functional) run. The cache
// defaults mirror the paper's Pintool setup: 1 MB L2 and 2 MB LLC per
// thread, 32 KB counter cache per thread, 2 MB huge pages.
type LifetimeConfig struct {
	L1  cache.Config
	L2  cache.Config
	LLC cache.Config

	TLBEntries int
	PageBytes  uint64

	// Engine carries the MC mode/scheme/table settings. MemBytes is
	// overridden to fit the workload footprint.
	Engine engine.Config

	// MaxAccesses bounds the CPU-level access stream.
	MaxAccesses uint64
	Seed        uint64

	// Tracer, when set, is attached to the MC for per-access event
	// tracing. It defaults to nil (no observation overhead).
	Tracer *obs.Tracer
}

// DefaultLifetimeConfig mirrors the paper's Pintool configuration.
func DefaultLifetimeConfig(eng engine.Config) LifetimeConfig {
	eng.CounterCacheBytes = 32 << 10 // per-thread counter cache (§III, §V)
	return LifetimeConfig{
		L1:          cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64},
		L2:          cache.Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
		LLC:         cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64},
		TLBEntries:  1536,
		PageBytes:   2 << 20,
		Engine:      eng,
		MaxAccesses: 5_000_000,
		Seed:        1,
	}
}

// LifetimeResult aggregates a lifetime run.
type LifetimeResult struct {
	Workload      string
	Accesses      uint64
	LLCMissReads  uint64
	LLCMissWrites uint64 // dirty LLC evictions sent to the MC

	// TLB misses measured on the same stream under both page sizes
	// (Figure 4). Misses are normalized against LLC misses by the caller.
	TLB4KMisses uint64
	TLB2MMisses uint64

	L1Stats, L2Stats, LLCStats cache.Stats
	Engine                     engine.Stats

	// CoveragePerValue is the mean number of data blocks whose counter
	// equals a live memoized value, per memoized value (Figure 15).
	// Lifetime.Result fills it with a scan of every data counter;
	// Lifetime.Counters leaves it zero.
	CoveragePerValue float64
	// MaxCounter is the largest data counter at the end (§IV-D2's +24%).
	MaxCounter uint64
}

// LLCMisses returns total MC read requests (the Figure-3 denominator).
func (r LifetimeResult) LLCMisses() uint64 { return r.LLCMissReads }

// RunLifetime executes a whole-lifetime functional simulation of w: a
// Lifetime stepper fed by the workload's access stream until MaxAccesses.
func RunLifetime(w workload.Workload, cfg LifetimeConfig) LifetimeResult {
	lt, err := NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		// Experiment configurations are code-defined, not user input;
		// match engine.New's panic-on-invalid contract.
		panic(err)
	}
	st := NewAccessStream(func(sink workload.Sink) { w.Run(cfg.Seed, sink) })
	defer st.Close()

	for lt.Accesses() < cfg.MaxAccesses {
		a, ok := st.Next()
		if !ok {
			break
		}
		if err := lt.Step(a); err != nil {
			// Physical memory is sized from the workload's own
			// footprint, so a workload that outgrows it is a bug.
			panic(err)
		}
	}
	return lt.Result()
}

// physFor sizes simulated physical memory: footprint plus slack, page
// aligned.
func physFor(footprint, pageBytes uint64) uint64 {
	phys := footprint + footprint/4 + 16<<20
	return (phys + pageBytes - 1) &^ (pageBytes - 1)
}

// coveragePerValue scans all data counters and computes the Figure-15
// metric: blocks covered per live memoized value.
func coveragePerValue(mc *engine.MC) float64 {
	tbl := mc.L0Table()
	store := mc.Store()
	live := tbl.LiveValues()
	if len(live) == 0 {
		return 0
	}
	inTable := make(map[uint64]bool, len(live))
	for _, v := range live {
		inTable[v] = true
	}
	covered := 0
	for i := 0; i < store.NumDataBlocks(); i++ {
		if inTable[store.Counter(0, i)] {
			covered++
		}
	}
	return float64(covered) / float64(len(live))
}

// hierarchy is the three-level data-cache stack shared by both drivers.
// Caches are modeled functionally (presence + dirtiness); dirty evictions
// propagate downward and ultimately reach the MC.
type hierarchy struct {
	l1, l2, llc *cache.Cache
	// victims backs the slice access returns; each access reuses it, so
	// callers drain the returned victims before the next access.
	victims []uint64
}

func newHierarchy(l1, l2, llc cache.Config) *hierarchy {
	return &hierarchy{l1: cache.New(l1), l2: cache.New(l2), llc: cache.New(llc)}
}

// llcWrite inserts a dirty block into the LLC, collecting any dirty victim
// it displaces.
func (h *hierarchy) llcWrite(paddr uint64) {
	r := h.llc.Access(paddr, true)
	if r.Evicted && r.Writeback {
		h.victims = append(h.victims, r.VictimAddr)
	}
}

// hitLevel is the cache level that served an access.
type hitLevel int

const (
	hitL1 hitLevel = iota
	hitL2
	hitLLC
	missAll
)

func (l hitLevel) String() string {
	switch l {
	case hitL1:
		return "L1"
	case hitL2:
		return "L2"
	case hitLLC:
		return "LLC"
	default:
		return "memory"
	}
}

// access runs one CPU access through L1→L2→LLC. It returns the level
// that served it (missAll: the access needs an MC read) and any dirty LLC
// victims that must be written to memory. The victims are valid until the
// next access.
func (h *hierarchy) access(paddr uint64, write bool) (lvl hitLevel, victims []uint64) {
	h.victims = h.victims[:0]
	r1 := h.l1.Access(paddr, write)
	if r1.Evicted && r1.Writeback {
		// L1 victim lands in L2 (it is inclusive-enough: allocate).
		r2 := h.l2.Access(r1.VictimAddr, true)
		if r2.Evicted && r2.Writeback {
			h.llcWrite(r2.VictimAddr)
		}
	}
	if r1.Hit {
		return hitL1, h.victims
	}
	r2 := h.l2.Access(paddr, false)
	if r2.Evicted && r2.Writeback {
		h.llcWrite(r2.VictimAddr)
	}
	if r2.Hit {
		return hitL2, h.victims
	}
	r3 := h.llc.Access(paddr, false)
	if r3.Evicted && r3.Writeback {
		h.victims = append(h.victims, r3.VictimAddr)
	}
	if r3.Hit {
		return hitLLC, h.victims
	}
	return missAll, h.victims
}
