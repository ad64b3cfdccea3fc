package core

import (
	"math"
	"testing"
	"testing/quick"

	"rmcc/internal/crypto/otp"
	"rmcc/internal/snapshot"
)

// fakeFill produces a deterministic, distinguishable result per value so
// tests can verify the table returns the right memoized entry.
func fakeFill(v uint64) otp.CtrResult {
	return otp.CtrResult{
		Enc: otp.Word128{Hi: v, Lo: ^v},
		Mac: otp.Word128{Hi: v * 3, Lo: v ^ 0xdead},
	}
}

func newTable(t testing.TB, mutate func(*Config)) *Table {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EpochAccesses = 1000 // fast epochs for tests
	if mutate != nil {
		mutate(&cfg)
	}
	return MustNewTable(cfg, fakeFill, func() uint64 { return 1 << 40 })
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Groups = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero groups accepted")
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"quantile > 1", func(c *Config) { c.CoverageQuantile = 1.5 }},
		{"NaN quantile", func(c *Config) { c.CoverageQuantile = math.NaN() }},
		{"negative budget", func(c *Config) { c.BudgetFrac = -0.01 }},
		{"NaN budget", func(c *Config) { c.BudgetFrac = math.NaN() }},
	} {
		bad = DefaultConfig()
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if DefaultConfig().Entries() != 128 {
		t.Fatalf("entries = %d, want 128 (Table I)", DefaultConfig().Entries())
	}
}

func TestInitialSeedCoversLowValues(t *testing.T) {
	tbl := newTable(t, nil)
	// Fresh table memoizes 0..127.
	for v := uint64(0); v < 128; v++ {
		if !tbl.Contains(v) {
			t.Fatalf("value %d not memoized at boot", v)
		}
	}
	if tbl.Contains(128) {
		t.Fatal("value 128 memoized at boot")
	}
	if got := tbl.MaxInTable(); got != 127 {
		t.Fatalf("MaxInTable = %d, want 127", got)
	}
}

func TestLookupReturnsCorrectResult(t *testing.T) {
	tbl := newTable(t, nil)
	res, src := tbl.Lookup(42, true)
	if src != GroupSource {
		t.Fatalf("source = %v, want group hit", src)
	}
	if res != fakeFill(42) {
		t.Fatalf("wrong memoized result for 42: %+v", res)
	}
	_, src = tbl.Lookup(1_000_000, true)
	if src != MissSource {
		t.Fatalf("distant value hit: %v", src)
	}
}

// TestPoisonedTracksCorruption: only a successful Poison marks the table;
// Repair leaves the mark (other entries may still be corrupt), and a
// DecodeState, which refills every entry through fill, clears it.
func TestPoisonedTracksCorruption(t *testing.T) {
	tbl := newTable(t, nil)
	if tbl.Poisoned() {
		t.Fatal("fresh table reports a poisoned entry")
	}
	if tbl.Poison(1_000_000) || tbl.Poisoned() {
		t.Fatal("poisoning a value that is not live marked the table")
	}
	if !tbl.Poison(42) || !tbl.Poisoned() {
		t.Fatal("poisoning a live value left the table reporting clean")
	}
	if res, _ := tbl.Lookup(42, false); res == fakeFill(42) {
		t.Fatal("Poison did not corrupt the entry")
	}
	tbl.Repair(42)
	if !tbl.Poisoned() {
		t.Fatal("Repair cleared the mark")
	}
	tbl.Poison(7)
	var e snapshot.Enc
	tbl.EncodeState(&e)
	for _, into := range []*Table{tbl, newTable(t, nil)} {
		if err := into.DecodeState(snapshot.NewDec(e.Data())); err != nil {
			t.Fatal(err)
		}
		if into.Poisoned() {
			t.Fatal("restored table reports a poisoned entry")
		}
		for _, v := range into.LiveValues() {
			if res, _ := into.Lookup(v, false); res != fakeFill(v) {
				t.Fatalf("restored table serves a corrupt result for %d", v)
			}
		}
	}
}

func TestNearestMemoized(t *testing.T) {
	tbl := newTable(t, nil)
	cases := []struct {
		current uint64
		want    uint64
		ok      bool
	}{
		{0, 1, true},     // next value within group 0
		{7, 8, true},     // crosses into group 1
		{126, 127, true}, // last memoized value
		{127, 0, false},  // nothing above table max
		{500, 0, false},
	}
	for _, c := range cases {
		got, ok := tbl.NearestMemoized(c.current)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NearestMemoized(%d) = (%d,%v), want (%d,%v)", c.current, got, ok, c.want, c.ok)
		}
	}
}

func TestNearestMemoizedAlwaysIncreases(t *testing.T) {
	tbl := newTable(t, nil)
	f := func(cur uint64) bool {
		got, ok := tbl.NearestMemoized(cur % 200)
		return !ok || got > cur%200
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFigure7ConsecutiveWritebacks replays the paper's Figure 7: a block
// whose counter sits below the table keeps landing on memoized values
// across consecutive writebacks.
func TestFigure7ConsecutiveWritebacks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochAccesses = 1000
	tbl := MustNewTable(cfg, fakeFill, func() uint64 { return 1 << 40 })
	ctr := uint64(23)
	steps := 0
	for w := 0; w < 200; w++ {
		next, ok := tbl.NearestMemoized(ctr)
		if !ok {
			break
		}
		if next <= ctr {
			t.Fatalf("writeback %d: target %d not above %d", w, next, ctr)
		}
		if !tbl.Contains(next) {
			t.Fatalf("writeback %d: target %d not memoized", w, next)
		}
		ctr = next
		steps++
	}
	// From 23 the policy steps +1 through every memoized value up to the
	// table max (127), staying covered the whole way — Figure 7's property.
	if ctr != 127 || steps != 127-23 {
		t.Fatalf("counter = %d after %d steps, want 127 after %d", ctr, steps, 127-23)
	}
}

// TestOverMaxInsertion reproduces §IV-C3: enough reads above the table max
// trigger a new Memoized Counter Value Group whose start covers most of the
// epoch's reads.
func TestOverMaxInsertion(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.OverMaxThreshold = 100
		c.EpochAccesses = 1_000_000 // avoid epoch rollover mid-test
	})
	before := tbl.MaxInTable()
	// Reads clustered just above the max.
	for i := 0; i < 200; i++ {
		tbl.Lookup(before+1+uint64(i%8), true)
	}
	if tbl.Stats().Insertions == 0 {
		t.Fatal("no insertion after threshold over-max reads")
	}
	if tbl.MaxInTable() <= before {
		t.Fatalf("table max did not grow: %d -> %d", before, tbl.MaxInTable())
	}
	// New values should now hit.
	_, src := tbl.Lookup(tbl.MaxInTable(), true)
	if src != GroupSource {
		t.Fatal("newly inserted group does not serve hits")
	}
}

func TestInsertionRespectsSystemMax(t *testing.T) {
	sysMax := uint64(130)
	cfg := DefaultConfig()
	cfg.EpochAccesses = 1_000_000
	cfg.OverMaxThreshold = 50
	tbl := MustNewTable(cfg, fakeFill, func() uint64 { return sysMax })
	for i := 0; i < 100000 && tbl.Stats().Insertions == 0; i++ {
		tbl.Lookup(100_000, true) // far above the table
	}
	if tbl.Stats().Insertions == 0 {
		t.Fatal("no insertion")
	}
	// Despite reads at 100000, the new group must start at or below
	// SystemMax+1 so the max counter still advances by single steps.
	if got := tbl.MaxInTable(); got > sysMax+1+uint64(cfg.GroupSize) {
		t.Fatalf("table max %d violates the System-Max bound (%d)", got, sysMax)
	}
}

func TestInsertionsPacedByThreshold(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.OverMaxThreshold = 100
		c.EpochAccesses = 1_000_000
	})
	for i := 0; i < 10000; i++ {
		tbl.Lookup(1<<30+uint64(i), true)
	}
	ins := tbl.Stats().Insertions
	if ins == 0 {
		t.Fatal("no insertions")
	}
	// Every insertion consumed at least OverMaxThreshold over-max reads.
	if ins > 10000/100 {
		t.Fatalf("insertions = %d exceed the threshold pacing bound %d", ins, 10000/100)
	}
}

func TestEpochResetsAllowNextInsertion(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.OverMaxThreshold = 10
		c.EpochAccesses = 100
	})
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 100; i++ {
			tbl.Lookup(1<<30+uint64(epoch*1000+i), true)
			tbl.OnAccess()
		}
	}
	if ins := tbl.Stats().Insertions; ins < 2 {
		t.Fatalf("insertions = %d across 3 epochs, want >= 2", ins)
	}
	if tbl.Stats().Epochs != 3 {
		t.Fatalf("epochs = %d", tbl.Stats().Epochs)
	}
}

// TestMRUEvictedValues verifies §IV-C4: after a group is evicted, the first
// use of one of its values misses (and promotes it), the second use hits
// via the MRU cache.
func TestMRUEvictedValues(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.OverMaxThreshold = 10
		c.EpochAccesses = 1_000_000
	})
	// Heat up all groups except group 0 (values 0..7) so it becomes LFU.
	for v := uint64(8); v < 128; v++ {
		tbl.Lookup(v, true)
	}
	// Force an insertion; group 0 is the LFU victim.
	for i := 0; i < 20; i++ {
		tbl.Lookup(1<<20, true)
	}
	if tbl.Contains(3) {
		t.Fatal("group 0 not evicted")
	}
	// First use after eviction: miss, promoted to MRU.
	if _, src := tbl.Lookup(3, true); src != MissSource {
		t.Fatalf("first evicted-value use = %v, want miss", src)
	}
	// Second use: MRU hit with the right result.
	res, src := tbl.Lookup(3, true)
	if src != MRUSource {
		t.Fatalf("second evicted-value use = %v, want MRU hit", src)
	}
	if res != fakeFill(3) {
		t.Fatal("MRU returned wrong result")
	}
}

func TestMRUDisabledAblation(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.EnableMRU = false
		c.OverMaxThreshold = 10
		c.EpochAccesses = 1_000_000
	})
	for v := uint64(8); v < 128; v++ {
		tbl.Lookup(v, true)
	}
	for i := 0; i < 20; i++ {
		tbl.Lookup(1<<20, true)
	}
	tbl.Lookup(3, true)
	if _, src := tbl.Lookup(3, true); src == MRUSource {
		t.Fatal("MRU hit despite ablation")
	}
}

// TestShadowPromotion: a group that keeps getting used after eviction is
// promoted back at the epoch boundary (shadow-tag re-ranking).
func TestShadowPromotion(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.OverMaxThreshold = 10
		c.EpochAccesses = 500
	})
	// Make group 0 (values 0..7) LFU and force eviction.
	for v := uint64(8); v < 128; v++ {
		tbl.Lookup(v, true)
	}
	for i := 0; i < 20; i++ {
		tbl.Lookup(1<<20, true)
	}
	if tbl.Contains(0) {
		t.Fatal("setup: group 0 still live")
	}
	// Hammer the evicted group's values so its shadow count dominates,
	// then cross the epoch boundary.
	for i := 0; i < 500; i++ {
		tbl.Lookup(uint64(i%8), true)
		tbl.OnAccess()
	}
	if !tbl.Contains(0) {
		t.Fatal("hot evicted group not promoted back at epoch end")
	}
}

func TestBudgetSpendAndCarryOver(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.EpochAccesses = 1000
		c.BudgetFrac = 0.01 // 10 blocks per epoch
	})
	if !tbl.SpendBudget(8) {
		t.Fatal("spend within budget refused")
	}
	if tbl.SpendBudget(5) {
		t.Fatal("overspend allowed")
	}
	if tbl.Stats().BudgetDenied != 1 {
		t.Fatalf("denied = %d", tbl.Stats().BudgetDenied)
	}
	// Cross an epoch: leftover 2 + 10 new = 12.
	for i := 0; i < 1000; i++ {
		tbl.OnAccess()
	}
	if got := tbl.budget.available; got != 12 {
		t.Fatalf("budget after carry-over = %v, want 12", got)
	}
}

func TestHitRateStats(t *testing.T) {
	tbl := newTable(t, nil)
	tbl.Lookup(5, true)    // hit
	tbl.Lookup(5000, true) // miss
	s := tbl.Stats()
	if s.Lookups != 2 || s.GroupHits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MRUHits != 0 {
		t.Fatalf("MRU hits = %d", s.MRUHits)
	}
}

func TestLiveValuesSortedUnique(t *testing.T) {
	tbl := newTable(t, nil)
	vals := tbl.LiveValues()
	if len(vals) != 128 {
		t.Fatalf("live values = %d", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("values not strictly increasing at %d", i)
		}
	}
}

func TestGroupSizeSweepEntriesConstant(t *testing.T) {
	// Figures 21-22 sweep group size at constant 128 entries.
	for _, gs := range []int{4, 8, 16} {
		cfg := DefaultConfig()
		cfg.GroupSize = gs
		cfg.Groups = 128 / gs
		if cfg.Entries() != 128 {
			t.Fatalf("group size %d: entries = %d", gs, cfg.Entries())
		}
		tbl := MustNewTable(cfg, fakeFill, nil)
		if got := len(tbl.LiveValues()); got != 128 {
			t.Fatalf("group size %d: live values = %d", gs, got)
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tbl := newTable(b, nil)
	for i := 0; i < b.N; i++ {
		tbl.Lookup(uint64(i)&127, true)
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	tbl := newTable(b, nil)
	for i := 0; i < b.N; i++ {
		tbl.Lookup(1<<30+uint64(i), false)
	}
}

func BenchmarkNearestMemoized(b *testing.B) {
	tbl := newTable(b, nil)
	for i := 0; i < b.N; i++ {
		tbl.NearestMemoized(uint64(i) & 127)
	}
}

// TestWatchpointBucketsMatchNaive drives random read traffic and checks that
// the bucketed watchpoint histogram (watchBelow + prefix sums) reproduces the
// naive per-watchpoint counts ("reads with value < watchpoint"), i.e. the
// recordRead optimization is observationally identical.
func TestWatchpointBucketsMatchNaive(t *testing.T) {
	tbl := newTable(t, func(c *Config) {
		c.OverMaxThreshold = 1 << 40 // no insertions: watchpoints stay fixed
		c.EpochAccesses = 1 << 40    // no epoch reset mid-test
	})
	values := make([]uint64, 0, 4000)
	v := uint64(12345)
	for i := 0; i < 4000; i++ {
		v = v*6364136223846793005 + 1442695040888963407 // LCG, deterministic
		val := v % 40000                                // spans all watchpoints
		values = append(values, val)
		tbl.Lookup(val, true)
	}
	var prefix uint64
	for i, w := range tbl.watchpoints {
		prefix += tbl.watchBelow[i]
		var naive uint64
		for _, val := range values {
			if val < w {
				naive++
			}
		}
		if prefix != naive {
			t.Fatalf("watchpoint %d (=%d): bucketed count %d, naive %d", i, w, prefix, naive)
		}
	}
}

// TestMaxInTableCached checks the cached Max-counter-in-Table against a naive
// scan of the live values after seeding and after forced insertions.
func TestMaxInTableCached(t *testing.T) {
	tbl := newTable(t, func(c *Config) { c.OverMaxThreshold = 4 })
	naiveMax := func() uint64 {
		var m uint64
		for _, v := range tbl.LiveValues() {
			if v > m {
				m = v
			}
		}
		return m
	}
	if got, want := tbl.MaxInTable(), naiveMax(); got != want {
		t.Fatalf("fresh table: MaxInTable = %d, naive = %d", got, want)
	}
	tbl.Seed([]uint64{1000, 2000, 3000})
	if got, want := tbl.MaxInTable(), naiveMax(); got != want {
		t.Fatalf("after Seed: MaxInTable = %d, naive = %d", got, want)
	}
	for i := 0; i < 64; i++ { // force over-max insertions
		tbl.Lookup(tbl.MaxInTable()+100, true)
		if got, want := tbl.MaxInTable(), naiveMax(); got != want {
			t.Fatalf("after insertion round %d: MaxInTable = %d, naive = %d", i, got, want)
		}
	}
}
