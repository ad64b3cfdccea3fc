package engine

import (
	"testing"

	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
)

func TestWarmStartSeedsTableAndCounters(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 32, func(c *Config) {
		c.WarmStartFrac = 0.9
	})
	// The table must no longer be the boot 0..127 seed.
	if mc.L0Table().Contains(0) && mc.L0Table().MaxInTable() == 127 {
		t.Fatal("warm start left the boot table")
	}
	// Most blocks' counters should be memoized immediately.
	covered, total := 0, 0
	for i := 0; i < mc.Store().NumDataBlocks(); i += 97 {
		total++
		if mc.L0Table().Contains(mc.Store().Counter(0, i)) {
			covered++
		}
	}
	frac := float64(covered) / float64(total)
	if frac < 0.7 || frac > 0.99 {
		t.Fatalf("warm-start coverage = %.2f, want ~0.9 with a live remainder", frac)
	}
}

func TestWarmStartZeroDisables(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 32, func(c *Config) {
		c.WarmStartFrac = 0
	})
	// Boot table with randomized counters: essentially nothing covered.
	covered := 0
	for i := 0; i < mc.Store().NumDataBlocks(); i += 97 {
		if mc.L0Table().Contains(mc.Store().Counter(0, i)) {
			covered++
		}
	}
	if covered > 2 {
		t.Fatalf("cold start unexpectedly covered %d sampled blocks", covered)
	}
}

func TestWarmStartStateStillEncodable(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 32, nil)
	r := rng.New(3)
	// Every group must accept baseline writes without panicking and the
	// functional content checks must hold.
	for n := 0; n < 5000; n++ {
		addr := r.Uint64n(32<<20) &^ 63
		if n%3 == 0 {
			mc.Write(addr)
		} else {
			mc.Read(addr)
		}
	}
	s := mc.Stats()
	if s.DecryptMismatches+s.IntegrityFailures != 0 {
		t.Fatalf("functional violations after warm start: %+v", s)
	}
}

func TestWarmStartMemoHitsImmediately(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, func(c *Config) {
		c.TrackContents = false
	})
	r := rng.New(9)
	for n := 0; n < 20000; n++ {
		mc.Read(r.Uint64n(64<<20) &^ 63)
		mc.OnEpochAccess()
	}
	if hit := mc.Stats().MemoHitRateOnMisses(); hit < 0.7 {
		t.Fatalf("warm-started memo hit rate = %.2f, want the steady-state regime", hit)
	}
}

func TestWarmStartKeepsWritesOnTable(t *testing.T) {
	// Figure-7 dynamic from a warm start: writes step +1 through memoized
	// windows, staying covered.
	mc := testMC(t, RMCC, counter.Morphable, 32, func(c *Config) {
		c.TrackContents = false
	})
	st := mc.Store()
	// Find a snapped block (counter in table).
	var blk int
	found := false
	for i := 0; i < st.NumDataBlocks(); i += 31 {
		if mc.L0Table().Contains(st.Counter(0, i)) {
			blk, found = i, true
			break
		}
	}
	if !found {
		t.Fatal("no snapped block found")
	}
	addr := st.DataBlockAddr(blk)
	onTable := 0
	const writes = 6
	for w := 0; w < writes; w++ {
		mc.Write(addr)
		if mc.L0Table().Contains(st.Counter(0, blk)) {
			onTable++
		}
	}
	if onTable < writes-2 {
		t.Fatalf("only %d/%d consecutive writes stayed memoized", onTable, writes)
	}
}
