package sim

import (
	"fmt"

	"rmcc/internal/mem/tlb"
	"rmcc/internal/mem/vm"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/workload"
)

// Lifetime is the incremental form of the lifetime driver: the same cache
// hierarchy, TLBs, page mapper, and secure MC that RunLifetime wires up,
// but stepped one CPU access at a time by the caller. RunLifetime is a
// thin loop over it, so a stream replayed through Step produces stats
// byte-identical to a direct run of the same stream — the property the
// rmccd service layer is built on.
//
// A Lifetime is single-owner: Step and Result must not be called
// concurrently (the engine underneath is not thread-safe).
type Lifetime struct {
	cfg    LifetimeConfig
	h      *hierarchy
	mapper *vm.Mapper
	mc     *engine.MC

	tlb4k, tlb2m *tlb.TLB

	name     string
	accesses uint64
	reads    uint64
	writes   uint64
}

// NewLifetimeChecked builds an incremental lifetime simulation for a
// stream named name over footprintBytes of virtual footprint. The engine
// configuration is validated first; invalid configurations return an
// error wrapping engine.ErrInvalidConfig instead of panicking (the
// service layer feeds it user input).
func NewLifetimeChecked(name string, footprintBytes uint64, cfg LifetimeConfig) (*Lifetime, error) {
	physBytes := physFor(footprintBytes, cfg.PageBytes)
	engCfg := cfg.Engine
	engCfg.MemBytes = physBytes
	mc, err := engine.NewChecked(engCfg)
	if err != nil {
		return nil, err
	}
	lt := &Lifetime{
		cfg:    cfg,
		h:      newHierarchy(cfg.L1, cfg.L2, cfg.LLC),
		mapper: vm.New(physBytes, cfg.PageBytes, cfg.Seed^0xabcd),
		mc:     mc,
		tlb4k:  tlb.New(tlb.Config{Entries: cfg.TLBEntries, Ways: 12, PageBytes: 4 << 10}),
		tlb2m:  tlb.New(tlb.Config{Entries: cfg.TLBEntries, Ways: 12, PageBytes: 2 << 20}),
		name:   name,
	}
	if cfg.Tracer != nil {
		mc.SetTracer(cfg.Tracer)
	}
	return lt, nil
}

// Step runs one CPU access through TLBs, the cache hierarchy, and — on an
// LLC miss or dirty eviction — the secure memory controller. It is the
// RunLifetime loop body. An access whose page is new when every physical
// page is mapped returns an error wrapping vm.ErrOutOfMemory before it
// touches any state, so the stepper continues as if it had never come.
func (lt *Lifetime) Step(a workload.Access) error {
	paddr, err := lt.mapper.Translate(a.Addr)
	if err != nil {
		return fmt.Errorf("sim: access %d at %#x: %w", lt.accesses+1, a.Addr, err)
	}
	lt.accesses++
	lt.tlb4k.Lookup(a.Addr)
	lt.tlb2m.Lookup(a.Addr)
	lvl, victims := lt.h.access(paddr, a.Write)
	for _, v := range victims {
		lt.mc.Write(v)
		lt.mc.OnEpochAccess()
		lt.writes++
	}
	if lvl == missAll {
		lt.mc.Read(paddr)
		lt.mc.OnEpochAccess()
		lt.reads++
	}
	return nil
}

// Accesses returns the number of CPU accesses stepped so far.
func (lt *Lifetime) Accesses() uint64 { return lt.accesses }

// MC exposes the underlying controller (snapshot endpoints, tests).
func (lt *Lifetime) MC() *engine.MC { return lt.mc }

// Result snapshots the run so far as a LifetimeResult: Counters plus
// CoveragePerValue, Figure 15's whole-run metric, which scans every data
// counter (O(data blocks) time, and it allocates). It is a pure read:
// calling it mid-stream and continuing to Step is fine (but must happen
// on the owning goroutine — the engine scan underneath is not
// thread-safe).
func (lt *Lifetime) Result() LifetimeResult {
	res := lt.Counters()
	if lt.mc.L0Table() != nil && lt.mc.Store() != nil {
		res.CoveragePerValue = coveragePerValue(lt.mc)
	}
	return res
}

// Counters snapshots every LifetimeResult field except CoveragePerValue,
// which it leaves zero. It reads only running counters — O(1) and
// allocation-free — so it is the roll-up for per-request service stats.
// Same single-owner rule as Result.
func (lt *Lifetime) Counters() LifetimeResult {
	res := LifetimeResult{
		Workload:      lt.name,
		Accesses:      lt.accesses,
		LLCMissReads:  lt.reads,
		LLCMissWrites: lt.writes,
		TLB4KMisses:   lt.tlb4k.Stats().Misses,
		TLB2MMisses:   lt.tlb2m.Stats().Misses,
		L1Stats:       lt.h.l1.Stats(),
		L2Stats:       lt.h.l2.Stats(),
		LLCStats:      lt.h.llc.Stats(),
		Engine:        lt.mc.Stats(),
	}
	if lt.mc.Store() != nil {
		res.MaxCounter = lt.mc.Store().ObservedMax(0)
	}
	return res
}
