package sim

import (
	"testing"

	"rmcc/internal/mem/cache"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/workload"
)

// syntheticWorkload drives the CPU model with a crafted access pattern.
type syntheticWorkload struct {
	name      string
	footprint uint64
	gen       func(emit func(addr uint64, write bool, gap uint8) bool)
}

func (s *syntheticWorkload) Name() string           { return s.name }
func (s *syntheticWorkload) FootprintBytes() uint64 { return s.footprint }
func (s *syntheticWorkload) Run(_ uint64, sink workload.Sink) {
	s.gen(func(addr uint64, write bool, gap uint8) bool {
		return sink(workload.Access{Addr: addr, Write: write, Gap: gap})
	})
}

func cpuTestCfg() DetailedConfig {
	cfg := DefaultDetailedConfig(engine.DefaultConfig(engine.NonSecure, counter.Morphable, 0))
	cfg.FastForwardAccesses = 0
	cfg.WarmupAccesses = 5_000
	cfg.MeasureAccesses = 50_000
	cfg.PrefetchStreams = 0 // isolate the core model
	return cfg
}

// TestCPUCacheResidentIPC: a tiny working set stays in L1, so the core
// should sustain an IPC well above 1 (gaps dominate; loads hit in 2 ns).
func TestCPUCacheResidentIPC(t *testing.T) {
	w := &syntheticWorkload{
		name:      "l1-resident",
		footprint: 1 << 20,
		gen: func(emit func(uint64, bool, uint8) bool) {
			i := uint64(0)
			for {
				if !emit((i%64)*64, false, 8) {
					return
				}
				i++
			}
		},
	}
	res := RunDetailed(w, cpuTestCfg())
	if res.IPC < 2 {
		t.Fatalf("L1-resident IPC = %.2f, want > 2", res.IPC)
	}
	if res.LLCMisses > 100 {
		t.Fatalf("unexpected misses: %d", res.LLCMisses)
	}
}

// TestCPUMemoryBoundIPC: dependent-feeling random misses over a huge
// footprint crush IPC far below the resident case.
func TestCPUMemoryBoundIPC(t *testing.T) {
	w := &syntheticWorkload{
		name:      "membound",
		footprint: 256 << 20,
		gen: func(emit func(uint64, bool, uint8) bool) {
			x := uint64(0x9e3779b97f4a7c15)
			for {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if !emit(x%(256<<20)&^63, false, 8) {
					return
				}
			}
		},
	}
	resident := &syntheticWorkload{name: "res", footprint: 1 << 20,
		gen: func(emit func(uint64, bool, uint8) bool) {
			i := uint64(0)
			for {
				if !emit((i%64)*64, false, 8) {
					return
				}
				i++
			}
		}}
	mem := RunDetailed(w, cpuTestCfg())
	res := RunDetailed(resident, cpuTestCfg())
	if mem.IPC*2 > res.IPC {
		t.Fatalf("memory-bound IPC %.2f not well below resident %.2f", mem.IPC, res.IPC)
	}
}

// TestCPUMSHRLimitsMLP: with a single MSHR, random misses serialize and
// IPC drops versus 16 MSHRs.
func TestCPUMSHRLimitsMLP(t *testing.T) {
	mk := func() workload.Workload {
		return &syntheticWorkload{
			name:      "mlp",
			footprint: 256 << 20,
			gen: func(emit func(uint64, bool, uint8) bool) {
				x := uint64(12345)
				for {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					if !emit(x%(256<<20)&^63, false, 4) {
						return
					}
				}
			},
		}
	}
	cfg1 := cpuTestCfg()
	cfg1.MSHRs = 1
	cfg16 := cpuTestCfg()
	cfg16.MSHRs = 16
	one := RunDetailed(mk(), cfg1)
	sixteen := RunDetailed(mk(), cfg16)
	if sixteen.IPC <= one.IPC*1.5 {
		t.Fatalf("MSHR scaling absent: 1 MSHR IPC %.3f vs 16 MSHR IPC %.3f", one.IPC, sixteen.IPC)
	}
}

// TestCPUGapsRaiseIPC: more compute per access must raise IPC (the gap
// instructions retire at the pipeline width).
func TestCPUGapsRaiseIPC(t *testing.T) {
	mk := func(gap uint8) workload.Workload {
		return &syntheticWorkload{
			name:      "gaps",
			footprint: 256 << 20,
			gen: func(emit func(uint64, bool, uint8) bool) {
				x := uint64(777)
				for {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					if !emit(x%(256<<20)&^63, false, gap) {
						return
					}
				}
			},
		}
	}
	small := RunDetailed(mk(2), cpuTestCfg())
	big := RunDetailed(mk(120), cpuTestCfg())
	if big.IPC <= small.IPC {
		t.Fatalf("IPC did not grow with compute: gap2 %.3f vs gap120 %.3f", small.IPC, big.IPC)
	}
}

// TestPrefetcherHelpsSequential: a latency-bound streaming scan (enough
// compute per line that the ROB cannot create MLP on its own) should see a
// clear IPC boost from the stream prefetcher. A bandwidth-bound stream
// would not — prefetching adds no bandwidth.
func TestPrefetcherHelpsSequential(t *testing.T) {
	mk := func() workload.Workload {
		return &syntheticWorkload{
			name:      "stream",
			footprint: 256 << 20,
			gen: func(emit func(uint64, bool, uint8) bool) {
				a := uint64(0)
				for {
					if !emit(a%(256<<20), false, 120) {
						return
					}
					a += 64
				}
			},
		}
	}
	off := cpuTestCfg()
	on := cpuTestCfg()
	on.PrefetchStreams = 16
	on.PrefetchDegree = 2
	without := RunDetailed(mk(), off)
	with := RunDetailed(mk(), on)
	if with.IPC <= without.IPC*1.1 {
		t.Fatalf("prefetcher ineffective on stream: off %.3f vs on %.3f", without.IPC, with.IPC)
	}
}

// TestPrefetcherTableBasics unit-tests stream detection.
func TestPrefetcherTableBasics(t *testing.T) {
	p := newPrefetcher(4, 2)
	if p.observe(100) != nil {
		t.Fatal("first touch should not prefetch")
	}
	if p.observe(101) != nil {
		t.Fatal("stride seen once should not arm")
	}
	out := p.observe(102)
	if len(out) != 2 || out[0] != 103 || out[1] != 104 {
		t.Fatalf("armed stream prefetches = %v, want [103 104]", out)
	}
	// Negative strides work too.
	p2 := newPrefetcher(4, 1)
	p2.observe(1000)
	p2.observe(998)
	out = p2.observe(996)
	if len(out) != 1 || out[0] != 994 {
		t.Fatalf("negative stride prefetch = %v, want [994]", out)
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	if newPrefetcher(0, 2) != nil {
		t.Fatal("zero streams should disable")
	}
}

// TestPrefetchFillWritesBackDirtyVictim: a prefetch fill into an LLC full
// of dirty lines evicts one of them, and that victim reaches memory like a
// demand access's: one engine write and the data block written at DRAM.
func TestPrefetchFillWritesBackDirtyVictim(t *testing.T) {
	cfg := DefaultDetailedConfig(engine.DefaultConfig(engine.Baseline, counter.Morphable, 0))
	cfg.LLC = cache.Config{SizeBytes: 4 << 10, Ways: 2, LineBytes: 64}
	cfg.PrefetchStreams, cfg.PrefetchDegree = 1, 1
	s := newDetailedSim(1<<20, cfg)
	for line := uint64(1024); line < 1024+64; line++ { // every way of every set
		s.hier.llc.Access(line<<6, true)
	}
	// Misses on lines 100-102 arm the stream; the third prefetches line 103.
	for line := uint64(100); line <= 102; line++ {
		s.prefetch(line << 6)
	}
	if !s.hier.llc.Probe(103 << 6) {
		t.Fatal("the armed stream did not fill line 103")
	}
	for s.eng.Step() {
	}
	if w := s.mc.Stats().Writes; w != 1 {
		t.Errorf("engine writes = %d, want 1 (the fill's dirty victim)", w)
	}
	if w := s.ch.Stats().Writes; w != 1 {
		t.Errorf("DRAM writes = %d, want 1 (the victim's data block)", w)
	}
}
