package engine

import (
	"testing"

	"rmcc/internal/core"
	"rmcc/internal/mem/dram"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
)

func testMC(t testing.TB, mode Mode, scheme counter.Scheme, memMB int, mutate func(*Config)) *MC {
	t.Helper()
	cfg := DefaultConfig(mode, scheme, uint64(memMB)<<20)
	cfg.TrackContents = true
	cfg.L0Table.EpochAccesses = 10_000
	cfg.L1Table.EpochAccesses = 10_000
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

func TestNonSecurePassThrough(t *testing.T) {
	mc := New(DefaultConfig(NonSecure, counter.Morphable, 1<<20))
	o := mc.Read(0x1000)
	if o.CtrCacheHit || len(o.Chain) != 0 || len(o.Extra) != 0 {
		t.Fatalf("non-secure read generated secure work: %+v", o)
	}
	o = mc.Write(0x1000)
	if len(o.Extra) != 0 {
		t.Fatalf("non-secure write generated extra traffic: %+v", o)
	}
	s := mc.Stats()
	if s.TrafficBlocks[dram.KindData] != 2 {
		t.Fatalf("data traffic = %d, want 2", s.TrafficBlocks[dram.KindData])
	}
}

func TestColdReadFetchesCounterChain(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 64, nil)
	o := mc.Read(0x100000)
	if o.CtrCacheHit {
		t.Fatal("cold read hit the counter cache")
	}
	if len(o.Chain) == 0 {
		t.Fatal("no chain fetches on cold read")
	}
	if o.Chain[0].Level != 0 {
		t.Fatalf("first fetch level = %d, want 0", o.Chain[0].Level)
	}
	// Second read of a block under the same counter block: cache hit.
	o = mc.Read(0x100040)
	if !o.CtrCacheHit {
		t.Fatal("same-group read missed the counter cache")
	}
}

func TestCounterCacheLocality(t *testing.T) {
	// One Morphable counter block covers 128 blocks = 8 KiB: sweeping 8 KiB
	// should miss once.
	mc := testMC(t, Baseline, counter.Morphable, 64, nil)
	for off := uint64(0); off < 8192; off += 64 {
		mc.Read(0x200000 + off)
	}
	s := mc.Stats()
	if s.CtrL0Misses != 1 {
		t.Fatalf("counter misses = %d, want 1 for one 8KiB region", s.CtrL0Misses)
	}
	if s.CtrL0Hits != 127 {
		t.Fatalf("counter hits = %d, want 127", s.CtrL0Hits)
	}
}

func TestWriteIncrementsCounter(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 64, func(c *Config) { c.RandomizeInit = false })
	i := mc.Store().DataBlockIndex(0x3000)
	before := mc.Store().Counter(0, i)
	mc.Write(0x3000)
	if got := mc.Store().Counter(0, i); got != before+1 {
		t.Fatalf("counter %d -> %d, want +1", before, got)
	}
}

func TestBaselineOverflowRelevels(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 64, func(c *Config) { c.RandomizeInit = false })
	// Write the same block until its minor space (uniform range 7, then
	// ZCC range 127) exhausts: the 128th write triggers a relevel.
	var overflowSeen bool
	for w := 0; w < 200; w++ {
		o := mc.Write(0x4000)
		if len(o.OverflowTraffic) > 0 {
			overflowSeen = true
			// Relevel traffic: read+write per covered block.
			if len(o.OverflowTraffic) != 2*mc.Store().Coverage() {
				t.Fatalf("overflow traffic = %d transfers, want %d",
					len(o.OverflowTraffic), 2*mc.Store().Coverage())
			}
			break
		}
	}
	if !overflowSeen {
		t.Fatal("no overflow in 200 writes to one block")
	}
	if mc.Stats().BaselineOverflows == 0 {
		t.Fatal("overflow not counted")
	}
}

// TestRMCCOverflowAtMemoizedIncrement: when +1 lands on a memoized value
// there is no jump to make, so a write whose +1 overflows the group
// relevels it to one above its maximum, as the baseline does, even though
// a memoized value lies higher. Morphable's 30-exception ZCC format makes
// such a write: block 0 sits at the base 0 with 97 others, blocks 1-30 sit
// at 20, and block 0's +1 would be a 31st exception; the table holds 0-7
// and 40-159, so 21 is not memoized and 40 is.
func TestRMCCOverflowAtMemoizedIncrement(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) { c.RandomizeInit = false })
	st := mc.Store()
	for b := 1; b <= 30; b++ {
		st.Set(0, b, 20)
	}
	starts := []uint64{0}
	for k := uint64(0); k < 15; k++ {
		starts = append(starts, 40+8*k)
	}
	mc.L0Table().Seed(starts)
	o := mc.Write(st.DataBlockAddr(0))
	if len(o.OverflowTraffic) != 2*st.Coverage() {
		t.Fatalf("overflow traffic = %d transfers, want a relevel's %d", len(o.OverflowTraffic), 2*st.Coverage())
	}
	for b := 0; b < st.Coverage(); b++ {
		if got := st.Counter(0, b); got != 21 {
			t.Fatalf("block %d = %d after the relevel, want 21", b, got)
		}
	}
	if s := mc.Stats(); s.BaselineOverflows != 1 || s.WriteJumps != 0 {
		t.Fatalf("BaselineOverflows %d, WriteJumps %d; want 1 and 0", s.BaselineOverflows, s.WriteJumps)
	}
}

func TestSGXNeverOverflows(t *testing.T) {
	mc := testMC(t, Baseline, counter.SGX, 16, func(c *Config) { c.RandomizeInit = false })
	for w := 0; w < 500; w++ {
		if o := mc.Write(0x5000); len(o.OverflowTraffic) > 0 {
			t.Fatal("SGX monolithic counters overflowed")
		}
	}
}

func TestRMCCWriteLandsOnMemoizedValue(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) { c.RandomizeInit = false })
	// With zero-initialized counters the table (seeded 0..127) covers the
	// group; a write should move the counter to a memoized value.
	mc.Write(0x6000)
	i := mc.Store().DataBlockIndex(0x6000)
	if !mc.L0Table().Contains(mc.Store().Counter(0, i)) {
		t.Fatalf("counter %d not memoized after write", mc.Store().Counter(0, i))
	}
}

func TestRMCCReadMemoHit(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) { c.RandomizeInit = false })
	// Zero counters are memoized at boot (values 0..127): a cold read's
	// counter miss should be accelerated.
	o := mc.Read(0x700000)
	if o.CtrCacheHit {
		t.Fatal("expected counter cache miss")
	}
	if !o.L0MemoHit {
		t.Fatal("zero counter not memoized")
	}
	if !o.Accelerated {
		t.Fatal("memoized counter miss not counted as accelerated")
	}
	s := mc.Stats()
	if s.AcceleratedMisses != 1 || s.L0MemoGroupHitsOnMiss != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadTriggeredUpdateConvergesReadOnlyBlocks(t *testing.T) {
	// With randomized (large) counters, the boot table (values 0..127) has
	// nothing above the counters, so convergence needs the §IV-C3 dynamic:
	// over-max reads insert a high group, after which read-triggered
	// updates start landing read-only blocks on memoized values.
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) {
		c.L0Table.OverMaxThreshold = 256
		c.WarmStartFrac = 0 // cold start: watch organic convergence
	})
	r := rng.New(41)
	for n := 0; n < 40000; n++ {
		mc.Read(r.Uint64n(64<<20) &^ 63)
		mc.OnEpochAccess()
	}
	s := mc.Stats()
	if mc.L0Table().Stats().Insertions == 0 {
		t.Fatal("no high group inserted despite over-max reads")
	}
	if s.ReadUpdates == 0 {
		t.Fatal("no read-triggered updates after high groups appeared")
	}
	// The self-reinforcement evidence: a meaningful number of blocks now
	// sit exactly on memoized values.
	covered := 0
	for i := 0; i < mc.Store().NumDataBlocks(); i += 64 {
		if mc.L0Table().Contains(mc.Store().Counter(0, i)) {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("no sampled blocks converged onto memoized values")
	}
}

// TestReadUpdateRelevelsAboveGroupMax: a read-triggered relevel, like a
// write's, lands above the group's maximum even when the nearest memoized
// value above the counter lies below it. Block 0 sits at the base 8 with
// 97 others and blocks 1-30 sit at 28, so raising block 0 to the memoized
// 16 would make a 31st Morphable exception; the group relevels onto 32,
// the table's next value above 28.
func TestReadUpdateRelevelsAboveGroupMax(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) {
		c.RandomizeInit = false
		c.L0Table.EpochAccesses = 1_000_000 // a budget that covers one relevel
	})
	st := mc.Store()
	st.Relevel(0, 0, 8)
	for b := 1; b <= 30; b++ {
		st.Set(0, b, 28)
	}
	starts := []uint64{16}
	for k := uint64(0); k < 15; k++ {
		starts = append(starts, 32+8*k)
	}
	mc.L0Table().Seed(starts)
	mc.Read(st.DataBlockAddr(0))
	for b := 0; b < st.Coverage(); b++ {
		if got := st.Counter(0, b); got != 32 {
			t.Fatalf("block %d = %d after the read, want 32", b, got)
		}
	}
	if s := mc.Stats(); s.ReadUpdateRelevels != 1 || s.OverheadL0Blocks != uint64(2*st.Coverage()) {
		t.Fatalf("ReadUpdateRelevels %d, OverheadL0Blocks %d; want 1 and %d",
			s.ReadUpdateRelevels, s.OverheadL0Blocks, 2*st.Coverage())
	}
}

func TestReadUpdateRespectsBudget(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) {
		c.L0Table.BudgetFrac = 0 // no budget at all
	})
	for a := uint64(0); a < 1<<22; a += 8192 {
		mc.Read(a)
	}
	s := mc.Stats()
	if s.ReadUpdates != 0 {
		t.Fatalf("read updates = %d with zero budget", s.ReadUpdates)
	}
	if s.OverheadL0Blocks != 0 {
		t.Fatalf("overhead = %d with zero budget", s.OverheadL0Blocks)
	}
}

func TestContentsRoundTripThroughWrites(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, nil)
	r := rng.New(3)
	for n := 0; n < 3000; n++ {
		addr := r.Uint64n(8<<20) &^ 63
		if r.Uint64()&3 == 0 {
			mc.Write(addr)
		} else {
			mc.Read(addr)
		}
	}
	s := mc.Stats()
	if s.DecryptMismatches != 0 {
		t.Fatalf("decrypt mismatches: %d", s.DecryptMismatches)
	}
	if s.IntegrityFailures != 0 {
		t.Fatalf("integrity failures: %d", s.IntegrityFailures)
	}
}

func TestContentsRoundTripBaselineSC64(t *testing.T) {
	mc := testMC(t, Baseline, counter.SC64, 16, nil)
	r := rng.New(5)
	for n := 0; n < 3000; n++ {
		addr := r.Uint64n(8<<20) &^ 63
		if r.Uint64()&1 == 0 {
			mc.Write(addr)
		} else {
			mc.Read(addr)
		}
	}
	s := mc.Stats()
	if s.DecryptMismatches+s.IntegrityFailures != 0 {
		t.Fatalf("functional violations: %+v", s)
	}
}

func TestTamperDetected(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 16, nil)
	mc.Read(0x8000) // install contents
	i := mc.Store().DataBlockIndex(0x8000)
	mc.TamperCiphertext(i)
	mc.Read(0x8000)
	if mc.Stats().IntegrityFailures == 0 {
		t.Fatal("tampered ciphertext passed the MAC check")
	}
}

func TestReplayDetected(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 16, nil)
	mc.Read(0x9000)
	i := mc.Store().DataBlockIndex(0x9000)
	oldCT, oldMAC := mc.SnapshotCiphertext(i)
	mc.Write(0x9000) // counter moves, new ciphertext
	mc.ReplayOldCiphertext(i, oldCT, oldMAC)
	mc.Read(0x9000)
	if mc.Stats().IntegrityFailures == 0 {
		t.Fatal("replayed stale ciphertext passed the MAC check")
	}
}

func TestEvictionCascadeBumpsParents(t *testing.T) {
	// A tiny counter cache forces evictions; dirty counter blocks written
	// back must bump L1 counters.
	mc := testMC(t, Baseline, counter.Morphable, 256, func(c *Config) {
		c.CounterCacheBytes = 4096
		c.CounterCacheWays = 4
		c.RandomizeInit = false
	})
	r := rng.New(7)
	for n := 0; n < 20000; n++ {
		mc.Write(r.Uint64n(256<<20) &^ 63)
	}
	var bumped bool
	for j := 0; j < mc.Store().NumL0Blocks(); j++ {
		if mc.Store().Counter(1, j) > 0 {
			bumped = true
			break
		}
	}
	if !bumped {
		t.Fatal("no L1 counter advanced despite dirty counter-block evictions")
	}
	if mc.Stats().TrafficBlocks[dram.KindCounter] == 0 {
		t.Fatal("no counter traffic recorded")
	}
}

func TestObservedMaxGrowthBound(t *testing.T) {
	// §IV-D2: RMCC must not explode the system max counter; new groups are
	// bounded by ObservedSystemMax+1.
	mcB := testMC(t, Baseline, counter.Morphable, 16, func(c *Config) { c.InitSeed = 9 })
	mcR := testMC(t, RMCC, counter.Morphable, 16, func(c *Config) { c.InitSeed = 9 })
	r1, r2 := rng.New(11), rng.New(11)
	for n := 0; n < 30000; n++ {
		a := r1.Uint64n(16<<20) &^ 63
		b := r2.Uint64n(16<<20) &^ 63
		if n%3 == 0 {
			mcB.Write(a)
			mcR.Write(b)
		} else {
			mcB.Read(a)
			mcR.Read(b)
		}
		mcB.OnEpochAccess()
		mcR.OnEpochAccess()
	}
	bMax, rMax := mcB.Store().ObservedMax(0), mcR.Store().ObservedMax(0)
	if rMax > bMax*3 {
		t.Fatalf("RMCC max counter %d vastly exceeds baseline %d", rMax, bMax)
	}
}

func TestTrafficKindsPopulated(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 32, nil)
	r := rng.New(13)
	for n := 0; n < 10000; n++ {
		addr := r.Uint64n(32<<20) &^ 63
		if n%4 == 0 {
			mc.Write(addr)
		} else {
			mc.Read(addr)
		}
		mc.OnEpochAccess()
	}
	s := mc.Stats()
	if s.TrafficBlocks[dram.KindData] == 0 || s.TrafficBlocks[dram.KindCounter] == 0 {
		t.Fatalf("traffic = %v", s.TrafficBlocks)
	}
	if s.TotalTraffic() < s.Reads+s.Writes {
		t.Fatal("total traffic below access count")
	}
}

func TestMemoStatsConsistency(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 32, nil)
	r := rng.New(17)
	for n := 0; n < 20000; n++ {
		mc.Read(r.Uint64n(32<<20) &^ 63)
		mc.OnEpochAccess()
	}
	s := mc.Stats()
	if s.L0MemoLookupsOnMiss != s.CtrL0Misses {
		t.Fatalf("lookups on miss %d != counter misses %d", s.L0MemoLookupsOnMiss, s.CtrL0Misses)
	}
	if hits := s.L0MemoGroupHitsOnMiss + s.L0MemoMRUHitsOnMiss; hits > s.L0MemoLookupsOnMiss {
		t.Fatal("more memo hits than lookups")
	}
	if s.AcceleratedMisses > s.CtrL0Misses {
		t.Fatal("accelerated > misses")
	}
	if s.L0MemoLookupsAll != s.Reads {
		t.Fatalf("all-lookups %d != reads %d", s.L0MemoLookupsAll, s.Reads)
	}
}

func TestCountModesProduceSameDataTraffic(t *testing.T) {
	// The same access stream must generate identical *data* traffic across
	// modes; only metadata traffic differs.
	streams := func() *rng.Source { return rng.New(23) }
	run := func(mode Mode) Stats {
		mc := testMC(t, mode, counter.Morphable, 16, func(c *Config) { c.TrackContents = false })
		r := streams()
		for n := 0; n < 5000; n++ {
			addr := r.Uint64n(16<<20) &^ 63
			if n%4 == 0 {
				mc.Write(addr)
			} else {
				mc.Read(addr)
			}
		}
		return mc.Stats()
	}
	base := run(Baseline)
	rm := run(RMCC)
	// RMCC may rewrite data blocks (read updates), so its data traffic is
	// >= baseline's, but reads+writes processed must match.
	if base.Reads != rm.Reads || base.Writes != rm.Writes {
		t.Fatalf("access counts diverged: %+v vs %+v", base.Reads, rm.Reads)
	}
	if rm.TrafficBlocks[dram.KindData] < base.TrafficBlocks[dram.KindData] {
		t.Fatal("RMCC generated less data traffic than baseline")
	}
}

func BenchmarkEngineReadRMCC(b *testing.B) {
	cfg := DefaultConfig(RMCC, counter.Morphable, 64<<20)
	mc := New(cfg)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Read(r.Uint64n(64<<20) &^ 63)
		mc.OnEpochAccess()
	}
}

func BenchmarkEngineWriteRMCC(b *testing.B) {
	cfg := DefaultConfig(RMCC, counter.Morphable, 64<<20)
	mc := New(cfg)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Write(r.Uint64n(64<<20) &^ 63)
		mc.OnEpochAccess()
	}
}

var _ = core.MissSource // keep import for clarity in failure messages

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{"nonsecure": NonSecure, "baseline": Baseline, "rmcc": RMCC} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMode("RMCC"); err == nil || err.Error() != `unknown mode "RMCC"` {
		t.Errorf("ParseMode(\"RMCC\") error = %v, want unknown mode", err)
	}
}
