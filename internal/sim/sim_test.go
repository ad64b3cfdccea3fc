package sim

import (
	"testing"

	"rmcc/internal/mem/cache"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/workload"
)

func lifetimeCfg(mode engine.Mode, scheme counter.Scheme, accesses uint64) LifetimeConfig {
	eng := engine.DefaultConfig(mode, scheme, 0)
	eng.L0Table.EpochAccesses = 100_000
	eng.L1Table.EpochAccesses = 100_000
	eng.L0Table.OverMaxThreshold = 512
	eng.L1Table.OverMaxThreshold = 512
	cfg := DefaultLifetimeConfig(eng)
	cfg.MaxAccesses = accesses
	return cfg
}

func TestLifetimeRunsAllWorkloads(t *testing.T) {
	for _, w := range workload.Suite(workload.SizeTest, 1) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			res := RunLifetime(w, lifetimeCfg(engine.Baseline, counter.Morphable, 200_000))
			if res.Accesses != 200_000 {
				t.Fatalf("accesses = %d", res.Accesses)
			}
			if res.LLCMissReads == 0 {
				t.Fatal("no LLC misses — footprint fits cache, not the paper's regime")
			}
			if res.Engine.Reads != res.LLCMissReads {
				t.Fatalf("engine reads %d != misses %d", res.Engine.Reads, res.LLCMissReads)
			}
		})
	}
}

func TestLifetimeCounterMissesTrackIrregularity(t *testing.T) {
	// Figure-3 shape: canneal's counter miss rate far above mcf's.
	rate := func(name string) float64 {
		w, ok := workload.ByName(workload.SizeSmall, 2, name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		res := RunLifetime(w, lifetimeCfg(engine.Baseline, counter.Morphable, 2_000_000))
		return res.Engine.CtrMissRate()
	}
	canneal := rate("canneal")
	mcf := rate("mcf")
	t.Logf("ctr miss rate: canneal=%.3f mcf=%.3f", canneal, mcf)
	if canneal < 0.5 {
		t.Fatalf("canneal counter miss rate %.3f too low", canneal)
	}
	if mcf > canneal/2 {
		t.Fatalf("mcf (%.3f) not clearly below canneal (%.3f)", mcf, canneal)
	}
}

func TestLifetimeRMCCMemoizationConverges(t *testing.T) {
	w, _ := workload.ByName(workload.SizeSmall, 3, "canneal")
	res := RunLifetime(w, lifetimeCfg(engine.RMCC, counter.Morphable, 4_000_000))
	hit := res.Engine.MemoHitRateOnMisses()
	t.Logf("memo hit on misses = %.3f, coverage/value = %.0f blocks, accelerated = %.3f",
		hit, res.CoveragePerValue, res.Engine.AcceleratedRate())
	if hit < 0.5 {
		t.Fatalf("memoization hit rate %.3f did not converge (want > 0.5 on canneal)", hit)
	}
	if res.CoveragePerValue < 100 {
		t.Fatalf("coverage per value %.1f implausibly low", res.CoveragePerValue)
	}
}

func TestLifetimeTLBHugePagesWin(t *testing.T) {
	w, _ := workload.ByName(workload.SizeSmall, 4, "canneal")
	res := RunLifetime(w, lifetimeCfg(engine.Baseline, counter.Morphable, 1_000_000))
	if res.TLB2MMisses*4 > res.TLB4KMisses {
		t.Fatalf("2MB TLB misses %d not well below 4KB %d", res.TLB2MMisses, res.TLB4KMisses)
	}
}

func TestLifetimeTrafficOverheadBounded(t *testing.T) {
	// Figure-20 regime: RMCC's traffic overhead under a 1 % budget must be
	// within a few percent of the baseline's traffic.
	base := RunLifetime(mustWL(t, "pageRank", 5), lifetimeCfg(engine.Baseline, counter.Morphable, 3_000_000))
	rm := RunLifetime(mustWL(t, "pageRank", 5), lifetimeCfg(engine.RMCC, counter.Morphable, 3_000_000))
	bt, rt := float64(base.Engine.TotalTraffic()), float64(rm.Engine.TotalTraffic())
	overhead := rt/bt - 1
	t.Logf("traffic overhead = %.3f (base %d, rmcc %d)", overhead, base.Engine.TotalTraffic(), rm.Engine.TotalTraffic())
	if overhead > 0.15 {
		t.Fatalf("traffic overhead %.3f way above budgeted regime", overhead)
	}
}

func mustWL(t testing.TB, name string, seed uint64) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(workload.SizeSmall, seed, name)
	if !ok {
		t.Fatalf("missing workload %s", name)
	}
	return w
}

func detailedCfg(mode engine.Mode, scheme counter.Scheme) DetailedConfig {
	eng := engine.DefaultConfig(mode, scheme, 0)
	eng.L0Table.EpochAccesses = 50_000
	eng.L1Table.EpochAccesses = 50_000
	eng.L0Table.OverMaxThreshold = 512
	eng.L1Table.OverMaxThreshold = 512
	cfg := DefaultDetailedConfig(eng)
	cfg.LLC.SizeBytes = 2 << 20 // scale the LLC with the SizeSmall workloads
	cfg.WarmupAccesses = 200_000
	cfg.MeasureAccesses = 600_000
	return cfg
}

func TestDetailedNonSecureBasics(t *testing.T) {
	res := RunDetailed(mustWL(t, "canneal", 6), detailedCfg(engine.NonSecure, counter.Morphable))
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if res.LLCMisses == 0 {
		t.Fatal("no misses measured")
	}
	// Non-secure miss latency is bare DRAM: tens of ns, well under 500.
	if res.AvgMissLatencyNS < 15 || res.AvgMissLatencyNS > 500 {
		t.Fatalf("non-secure miss latency %.1f ns implausible", res.AvgMissLatencyNS)
	}
}

func TestDetailedSecureSlowerThanNonSecure(t *testing.T) {
	ns := RunDetailed(mustWL(t, "canneal", 7), detailedCfg(engine.NonSecure, counter.Morphable))
	base := RunDetailed(mustWL(t, "canneal", 7), detailedCfg(engine.Baseline, counter.Morphable))
	t.Logf("non-secure IPC=%.3f lat=%.1f; morphable IPC=%.3f lat=%.1f",
		ns.IPC, ns.AvgMissLatencyNS, base.IPC, base.AvgMissLatencyNS)
	if base.IPC >= ns.IPC {
		t.Fatalf("secure baseline (%.3f) not slower than non-secure (%.3f)", base.IPC, ns.IPC)
	}
	if base.AvgMissLatencyNS <= ns.AvgMissLatencyNS {
		t.Fatal("secure miss latency not above non-secure")
	}
}

func TestDetailedRMCCBeatsMorphableOnIrregular(t *testing.T) {
	// The headline (Figure 13/14 shape): on a counter-miss-heavy workload,
	// RMCC improves IPC and trims miss latency vs Morphable.
	base := RunDetailed(mustWL(t, "canneal", 8), detailedCfg(engine.Baseline, counter.Morphable))
	rm := RunDetailed(mustWL(t, "canneal", 8), detailedCfg(engine.RMCC, counter.Morphable))
	t.Logf("morphable IPC=%.4f lat=%.1fns | RMCC IPC=%.4f lat=%.1fns (memo hit on miss %.2f)",
		base.IPC, base.AvgMissLatencyNS, rm.IPC, rm.AvgMissLatencyNS,
		rm.Engine.MemoHitRateOnMisses())
	if rm.AvgMissLatencyNS >= base.AvgMissLatencyNS {
		t.Fatalf("RMCC miss latency %.1f not below Morphable %.1f",
			rm.AvgMissLatencyNS, base.AvgMissLatencyNS)
	}
	if rm.IPC <= base.IPC {
		t.Fatalf("RMCC IPC %.4f not above Morphable %.4f", rm.IPC, base.IPC)
	}
}

func TestDetailedDeterminism(t *testing.T) {
	cfg := detailedCfg(engine.RMCC, counter.Morphable)
	cfg.WarmupAccesses = 50_000
	cfg.MeasureAccesses = 150_000
	a := RunDetailed(mustWL(t, "omnetpp", 10), cfg)
	b := RunDetailed(mustWL(t, "omnetpp", 10), cfg)
	if a.IPC != b.IPC || a.WindowTime != b.WindowTime || a.LLCMisses != b.LLCMisses {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestDetailedAESLatencySensitivity(t *testing.T) {
	// Figure-17 mechanism: higher AES latency hurts the baseline more than
	// RMCC, so the RMCC advantage grows.
	run := func(mode engine.Mode, aesNS int64) DetailedResult {
		cfg := detailedCfg(mode, counter.Morphable)
		cfg.AESLat = aesNS * 1000
		cfg.WarmupAccesses = 100_000
		cfg.MeasureAccesses = 300_000
		return RunDetailed(mustWL(t, "canneal", 11), cfg)
	}
	b15, r15 := run(engine.Baseline, 15), run(engine.RMCC, 15)
	b22, r22 := run(engine.Baseline, 22), run(engine.RMCC, 22)
	gain15 := r15.IPC / b15.IPC
	gain22 := r22.IPC / b22.IPC
	t.Logf("RMCC gain: 15ns=%.4f 22ns=%.4f", gain15, gain22)
	if gain22 <= gain15*0.99 {
		t.Fatalf("RMCC advantage did not grow with AES latency: %.4f vs %.4f", gain15, gain22)
	}
}

func TestStreamCloseStopsGenerator(t *testing.T) {
	w := mustWL(t, "canneal", 12)
	st := NewAccessStream(func(sink workload.Sink) { w.Run(1, sink) })
	for i := 0; i < 100; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatal("stream ended prematurely")
		}
	}
	st.Close() // must not deadlock
	if _, ok := st.Next(); ok {
		t.Fatal("stream produced accesses after close")
	}
}

// TestHierarchyAccessAllocFree: access returns its dirty LLC victims in
// the hierarchy's reused scratch slice, so a write stream that keeps
// pushing dirty lines out of the LLC allocates nothing.
func TestHierarchyAccessAllocFree(t *testing.T) {
	twoWay := func(size int) cache.Config { return cache.Config{SizeBytes: size, Ways: 2, LineBytes: 64} }
	h := newHierarchy(twoWay(1<<10), twoWay(2<<10), twoWay(4<<10))
	const lines = 4 * (4 << 10) / 64 // 4x the LLC, every line written
	victims := 0
	run := func() {
		for i := uint64(0); i < lines; i++ {
			_, v := h.access(i*64, true)
			victims += len(v)
		}
	}
	run()
	if victims == 0 {
		t.Fatal("the stream pushed no dirty line out of the LLC")
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("hierarchy.access allocates %.1f times per %d accesses, want 0", allocs, lines)
	}
}
