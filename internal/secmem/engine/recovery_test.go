package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"rmcc/internal/core"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
)

// TestValidateRejectsBadConfigs table-drives Config.Validate across every
// invalid-field class and checks NewChecked surfaces ErrInvalidConfig.
func TestValidateRejectsBadConfigs(t *testing.T) {
	base := func() Config { return DefaultConfig(RMCC, counter.Morphable, 16<<20) }
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"bad mode", func(c *Config) { c.Mode = Mode(99) }, "mode"},
		{"bad recovery", func(c *Config) { c.Recovery = RecoveryPolicy(99) }, "recovery"},
		{"bad scheme", func(c *Config) { c.Scheme = counter.Scheme(99) }, "scheme"},
		{"zero memory", func(c *Config) { c.MemBytes = 0 }, "MemBytes"},
		{"unaligned memory", func(c *Config) { c.MemBytes = 100 }, "MemBytes"},
		{"bad counter cache", func(c *Config) { c.CounterCacheBytes = 0 }, "counter cache"},
		{"bad warm-start", func(c *Config) { c.WarmStartFrac = 1.5 }, "WarmStartFrac"},
		{"NaN warm-start", func(c *Config) { c.WarmStartFrac = math.NaN() }, "WarmStartFrac"},
		{"bad L0 table", func(c *Config) { c.L0Table.Groups = 0 }, "L0 table"},
		{"NaN L0 quantile", func(c *Config) { c.L0Table.CoverageQuantile = math.NaN() }, "L0 table"},
		{"NaN L0 budget", func(c *Config) { c.L0Table.BudgetFrac = math.NaN() }, "L0 table"},
		{"bad L1 table", func(c *Config) { c.L1Table.GroupSize = 0 }, "L1 table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the bad config")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("error %v does not wrap ErrInvalidConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, nerr := NewChecked(cfg); nerr == nil {
				t.Error("NewChecked accepted the bad config")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("Validate rejected the default config: %v", err)
	}
	if err := DefaultConfig(NonSecure, counter.Morphable, 0).Validate(); err != nil {
		t.Fatalf("Validate rejected non-secure with no memory: %v", err)
	}
}

// TestNewPanicsOnBadConfig keeps the legacy constructor contract.
func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on an invalid config")
		}
	}()
	cfg := DefaultConfig(RMCC, counter.Morphable, 16<<20)
	cfg.CounterCacheBytes = 0
	New(cfg)
}

// TestTamperSurfacesTypedViolation: under the default FailStop policy a
// tampered block yields an unrecovered ViolationMAC classified as
// ErrIntegrityViolation via Outcome.Err().
func TestTamperSurfacesTypedViolation(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 16, nil)
	mc.Read(0x2000)
	i := mc.Store().DataBlockIndex(0x2000)
	if err := mc.TamperCiphertext(i); err != nil {
		t.Fatalf("TamperCiphertext: %v", err)
	}
	out := mc.Read(0x2000)
	if len(out.Violations) == 0 {
		t.Fatal("tampered read reported no violations")
	}
	v := out.Violations[0]
	if v.Kind != ViolationMAC || v.Recovered || v.Block != i {
		t.Fatalf("violation = %+v, want unrecovered ViolationMAC on block %d", v, i)
	}
	err := out.Err()
	if err == nil || !errors.Is(err, ErrIntegrityViolation) {
		t.Fatalf("Outcome.Err() = %v, want ErrIntegrityViolation", err)
	}
	if mc.Stats().ViolationsByKind[ViolationMAC] == 0 {
		t.Error("ViolationsByKind[MAC] not counted")
	}
}

// TestRetryRefetchClearsTransient: a one-shot bus fault is recovered by the
// bounded re-fetch and never reaches the legacy failure counters.
func TestRetryRefetchClearsTransient(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, func(c *Config) {
		c.Recovery = RetryRefetch
	})
	i := mc.Store().DataBlockIndex(0x3000)
	if err := mc.TamperTransient(i, 1); err != nil {
		t.Fatalf("TamperTransient: %v", err)
	}
	out := mc.Read(0x3000)
	if len(out.Violations) != 1 || !out.Violations[0].Recovered {
		t.Fatalf("violations = %+v, want one recovered", out.Violations)
	}
	if out.Err() != nil {
		t.Fatalf("Outcome.Err() = %v for a recovered violation", out.Err())
	}
	s := mc.Stats()
	if s.RetryRecoveries != 1 || s.RetryAttempts == 0 {
		t.Errorf("retry stats = %d recoveries / %d attempts, want 1 / >0", s.RetryRecoveries, s.RetryAttempts)
	}
	if s.IntegrityFailures != 0 || s.DecryptMismatches != 0 {
		t.Errorf("recovered transient hit legacy failure counters: %d/%d",
			s.IntegrityFailures, s.DecryptMismatches)
	}
	if out2 := mc.Read(0x3000); len(out2.Violations) != 0 {
		t.Errorf("second read still fails: %+v", out2.Violations)
	}
}

// TestRetryRefetchPersistentFailStops: persistent corruption exhausts the
// retries and fail-stops (no re-key under RetryRefetch).
func TestRetryRefetchPersistentFailStops(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 16, func(c *Config) {
		c.Recovery = RetryRefetch
	})
	i := mc.Store().DataBlockIndex(0x4000)
	if err := mc.TamperCiphertext(i); err != nil {
		t.Fatalf("TamperCiphertext: %v", err)
	}
	out := mc.Read(0x4000)
	if len(out.Violations) != 1 || out.Violations[0].Recovered {
		t.Fatalf("violations = %+v, want one unrecovered", out.Violations)
	}
	if out.Rekeyed {
		t.Error("RetryRefetch escalated to a re-key")
	}
	s := mc.Stats()
	if s.RetryAttempts != retryLimit {
		t.Errorf("retry attempts = %d, want %d", s.RetryAttempts, retryLimit)
	}
	if s.IntegrityFailures != 1 {
		t.Errorf("IntegrityFailures = %d, want 1", s.IntegrityFailures)
	}
}

// TestRekeyRecoverHealsPersistentTamper: RekeyRecover escalates to the
// whole-memory re-key and the machine verifies cleanly afterwards.
func TestRekeyRecoverHealsPersistentTamper(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, func(c *Config) {
		c.Recovery = RekeyRecover
	})
	r := rng.New(3)
	var addrs []uint64
	for n := 0; n < 500; n++ {
		a := r.Uint64n(16<<20) &^ 63
		mc.Write(a)
		addrs = append(addrs, a)
	}
	i := mc.Store().DataBlockIndex(addrs[0])
	if err := mc.TamperCiphertext(i); err != nil {
		t.Fatalf("TamperCiphertext: %v", err)
	}
	out := mc.Read(addrs[0])
	if !out.Rekeyed {
		t.Fatal("RekeyRecover did not re-key on persistent tamper")
	}
	if len(out.Violations) == 0 || !out.Violations[0].Recovered {
		t.Fatalf("violations = %+v, want recovered", out.Violations)
	}
	if mc.KeyEpoch() != 1 {
		t.Errorf("key epoch = %d, want 1", mc.KeyEpoch())
	}
	// Every previously written block must decrypt correctly in the new
	// epoch — including the tampered one (the re-key re-sealed it).
	pre := mc.Stats()
	for _, a := range addrs {
		if o := mc.Read(a); len(o.Violations) != 0 {
			t.Fatalf("post-rekey read of %#x failed: %v", a, o.Violations[0])
		}
	}
	post := mc.Stats()
	if post.IntegrityFailures != pre.IntegrityFailures || post.DecryptMismatches != pre.DecryptMismatches {
		t.Error("post-rekey reads hit the failure counters")
	}
}

// TestCounterExhaustionRebootDrill is the paper's §VII guarantee end to
// end: forcing a counter group to the 56-bit ceiling makes the next write
// re-key all of memory instead of reusing a pad; afterwards every tracked
// block decrypts correctly and memoization re-converges above 50%.
func TestCounterExhaustionRebootDrill(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, nil)
	r := rng.New(9)
	var addrs []uint64
	for n := 0; n < 2000; n++ {
		a := r.Uint64n(16<<20) &^ 63
		if n%3 == 0 {
			mc.Write(a)
		} else {
			mc.Read(a)
		}
		mc.OnEpochAccess()
		addrs = append(addrs, a)
	}

	target := addrs[0]
	if err := mc.ForceCounterCeiling(target); err != nil {
		t.Fatalf("ForceCounterCeiling: %v", err)
	}
	out := mc.Write(target)
	if !out.Rekeyed {
		t.Fatal("write at the ceiling did not re-key")
	}
	found := false
	for _, v := range out.Violations {
		if v.Kind == ViolationCounterOverflow && v.Recovered {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovered ViolationCounterOverflow on the outcome: %+v", out.Violations)
	}
	s := mc.Stats()
	if s.CounterOverflows == 0 || s.Rekeys != 1 || s.RekeyBlocks == 0 {
		t.Errorf("overflow/rekey stats = %d/%d/%d", s.CounterOverflows, s.Rekeys, s.RekeyBlocks)
	}
	if mc.Store().ObservedMax(0) > uint64(len(addrs)) {
		t.Errorf("counters not reset: observed max %d", mc.Store().ObservedMax(0))
	}

	// Post-reboot: every tracked block decrypts correctly...
	pre := mc.Stats()
	for _, a := range addrs {
		if o := mc.Read(a); len(o.Violations) != 0 {
			t.Fatalf("post-reboot read of %#x failed: %v", a, o.Violations[0])
		}
		mc.OnEpochAccess()
	}
	// ...and memoization re-converged: with all counters reset near zero
	// and the tables reseeded, the hit rate over the post-reboot reads
	// must clear 50%.
	post := mc.Stats()
	lookups := post.L0MemoLookupsAll - pre.L0MemoLookupsAll
	hits := post.L0MemoHitsAll - pre.L0MemoHitsAll
	if lookups == 0 {
		t.Fatal("no memo lookups after the reboot")
	}
	if rate := float64(hits) / float64(lookups); rate <= 0.5 {
		t.Errorf("post-reboot memo hit rate %.3f (%d/%d), want > 0.5", rate, hits, lookups)
	}
}

// TestTreeCounterCeilingRekeys: a level-1 counter at the top of the uint64
// range (corruption, or a restored blob) must re-key on the next bump in
// its node rather than wrap the counter to 0. The writes sweep L0 blocks,
// so their write-backs bump the corrupted counter itself (SGX reaches it
// first) or its siblings (SC-64 and Morphable).
func TestTreeCounterCeilingRekeys(t *testing.T) {
	for _, scheme := range []counter.Scheme{counter.SGX, counter.SC64, counter.Morphable} {
		t.Run(scheme.String(), func(t *testing.T) {
			mc := testMC(t, Baseline, scheme, 16, func(c *Config) {
				c.CounterCacheBytes = 4096
				c.CounterCacheWays = 4
			})
			st := mc.Store()
			mc.CorruptCounter(1, 0, ^uint64(0))
			var out Outcome
			for j := 0; j < st.NumL0Blocks() && !out.Rekeyed; j++ {
				out = mc.Write(st.DataBlockAddr(j * st.Coverage()))
			}
			if !out.Rekeyed {
				t.Fatal("no write re-keyed")
			}
			found := false
			for _, v := range out.Violations {
				found = found || v.Kind == ViolationCounterOverflow && v.Recovered
			}
			if !found || mc.Stats().CounterOverflows == 0 {
				t.Fatalf("no recovered ViolationCounterOverflow: %+v", out.Violations)
			}
			if got := st.Counter(1, 0); got != 0 {
				t.Fatalf("corrupted counter reads %d after the re-key, want 0", got)
			}
			for j := 0; j < 256; j++ {
				if o := mc.Write(st.DataBlockAddr(j * st.Coverage())); len(o.Violations) != 0 {
					t.Fatalf("write after the re-key: %v", o.Violations[0])
				}
			}
		})
	}
}

// TestCorruptedTreeNodeRelevelsAboveMax: a level-1 counter corrupted to
// 10 below the L1 table's live values, in a node whose other counters all
// sit more than 127 above them, leaves a node that no longer encodes and a
// nearest memoized value under the node's maximum. The counter's next bump
// (its L0 block written, then evicted) must relevel the node above that
// maximum, here onto maximum+1 as no memoized value lies higher, as a
// baseline overflow, not panic releveling onto the memoized value.
func TestCorruptedTreeNodeRelevelsAboveMax(t *testing.T) {
	for _, scheme := range []counter.Scheme{counter.Morphable, counter.SC64} {
		t.Run(scheme.String(), func(t *testing.T) {
			mc := testMC(t, RMCC, scheme, 64, nil)
			st := mc.Store()
			live := mc.L1Table().LiveValues()
			lo, hi := live[0], live[len(live)-1] // ascending
			cov, n := st.Coverage(), st.TreeLevelLen(1)
			node := -1
			for k := 0; node < 0 && k*cov < n; k++ {
				above := true
				for c := k * cov; c < min((k+1)*cov, n); c++ {
					above = above && st.Counter(1, c) > hi+127
				}
				if above {
					node = k
				}
			}
			if node < 0 {
				t.Fatalf("no level-1 node sits more than 127 above the L1 table's %d..%d", lo, hi)
			}
			child, top := node*cov, st.GroupMax(1, node)
			overflows := mc.Stats().BaselineOverflows
			mc.CorruptCounter(1, child, lo-10)
			mc.Write(st.DataBlockAddr(child * cov))
			mc.EvictCounterLine(st.NodeAddr(0, child))
			for c := child; c < min(child+cov, n); c++ {
				if got := st.Counter(1, c); got != top+1 {
					t.Fatalf("node %d child %d = %d after the bump, want %d (one above the node's maximum)", node, c, got, top+1)
				}
			}
			if got := mc.Stats().BaselineOverflows; got != overflows+1 {
				t.Fatalf("BaselineOverflows %d -> %d, want one relevel", overflows, got)
			}
		})
	}
}

// TestPowerLossKeepsDecryptions: losing all volatile state must not lose
// data — counters persist, so every block still decrypts.
func TestPowerLossKeepsDecryptions(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, nil)
	r := rng.New(5)
	var addrs []uint64
	for n := 0; n < 300; n++ {
		a := r.Uint64n(16<<20) &^ 63
		mc.Write(a)
		addrs = append(addrs, a)
	}
	mc.PowerLoss()
	if mc.Stats().PowerLosses != 1 {
		t.Error("power loss not counted")
	}
	for _, a := range addrs {
		if o := mc.Read(a); len(o.Violations) != 0 {
			t.Fatalf("post-power-loss read of %#x failed: %v", a, o.Violations[0])
		}
	}
	if mc.KeyEpoch() != 0 {
		t.Error("power loss must not re-key")
	}
}

// TestMetadataCorruptionTyped: a poisoned counter-cache line is dropped
// with a typed ErrMetadataCorruption instead of the old panic.
func TestMetadataCorruptionTyped(t *testing.T) {
	mc := testMC(t, Baseline, counter.Morphable, 16, nil)
	bogus := uint64(1) << 41
	mc.PoisonCounterCache(bogus)
	mc.EvictCounterLine(bogus)
	out := mc.Read(0x1000)
	var hit *IntegrityError
	for _, v := range out.Violations {
		if v.Kind == ViolationMetadataAddr {
			hit = v
		}
	}
	if hit == nil {
		t.Fatalf("no ViolationMetadataAddr surfaced: %+v", out.Violations)
	}
	if !errors.Is(hit, ErrMetadataCorruption) {
		t.Error("violation does not classify as ErrMetadataCorruption")
	}
	if !hit.Recovered {
		t.Error("dropped line should be marked recovered")
	}
	if mc.Stats().MetadataCorruptions == 0 {
		t.Error("MetadataCorruptions not counted")
	}
}

// poisonLiveBlock poisons the L0 table entry serving some block's current
// counter and returns that block and value.
func poisonLiveBlock(t *testing.T, mc *MC) (block int, v uint64) {
	t.Helper()
	st, tbl := mc.Store(), mc.L0Table()
	for i := 0; i < st.NumDataBlocks(); i++ {
		if v = st.Counter(0, i); tbl.Contains(v) {
			if !mc.PoisonMemoEntry(v) {
				t.Fatal("PoisonMemoEntry missed a live value")
			}
			return i, v
		}
	}
	t.Skip("no block counter live in the warm-started table")
	return 0, 0
}

// TestMemoPoisonDetectedAndRepaired: a poisoned table entry is caught by
// the cross-check, repaired, and served from the AES pipeline.
func TestMemoPoisonDetectedAndRepaired(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, nil)
	st := mc.Store()
	if mc.L0Table().Poisoned() {
		t.Fatal("fresh table reports a poisoned entry")
	}
	target, _ := poisonLiveBlock(t, mc)
	if !mc.L0Table().Poisoned() {
		t.Fatal("PoisonMemoEntry left the table reporting clean")
	}
	out := mc.Read(st.DataBlockAddr(target))
	found := false
	for _, viol := range out.Violations {
		if viol.Kind == ViolationMemoPoison && viol.Recovered && errors.Is(viol, ErrMemoCorruption) {
			found = true
		}
	}
	if !found {
		t.Fatalf("poison not flagged: %+v", out.Violations)
	}
	s := mc.Stats()
	if s.MemoPoisonDetected != 1 || s.MemoPoisonRepaired != 1 {
		t.Errorf("poison stats = %d/%d, want 1/1", s.MemoPoisonDetected, s.MemoPoisonRepaired)
	}
	// The repair re-filled the entry: the next read of the same value is
	// clean.
	if out2 := mc.Read(st.DataBlockAddr(target)); len(out2.Violations) != 0 {
		t.Errorf("repaired entry still flagged: %+v", out2.Violations)
	}
}

// TestPoisonClearedByRebuildAndRestore: the per-hit cross-check runs only
// on a poisoned table, so each path that replaces a table's entries must
// leave a clean table that also reports clean. Power loss and re-key
// rebuild the tables; a snapshot load, into a fresh controller or over the
// poisoned one, recomputes every entry through fill.
func TestPoisonClearedByRebuildAndRestore(t *testing.T) {
	reload := func(t *testing.T, from, into *MC) *MC {
		if err := decodeMC(into, encodeMC(from)); err != nil {
			t.Fatal(err)
		}
		return into
	}
	for _, tc := range []struct {
		name string
		op   func(t *testing.T, mc *MC) *MC
	}{
		{"power-loss", func(t *testing.T, mc *MC) *MC { mc.PowerLoss(); return mc }},
		{"rekey", func(t *testing.T, mc *MC) *MC { mc.Rekey(); return mc }},
		{"snapshot-load", func(t *testing.T, mc *MC) *MC { return reload(t, mc, New(mc.Config())) }},
		{"snapshot-load-in-place", func(t *testing.T, mc *MC) *MC { return reload(t, mc, mc) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := testMC(t, RMCC, counter.Morphable, 16, nil)
			target, _ := poisonLiveBlock(t, mc)
			mc = tc.op(t, mc)
			tbl := mc.L0Table()
			if tbl.Poisoned() {
				t.Fatal("table still reports a poisoned entry")
			}
			for _, v := range tbl.LiveValues() {
				if res, src := tbl.Lookup(v, false); src == core.MissSource || res != mc.Unit().CounterOnly(v) {
					t.Fatalf("live value %d served %v from %v, want a fresh AES result", v, res, src)
				}
			}
			if out := mc.Read(mc.Store().DataBlockAddr(target)); len(out.Violations) != 0 {
				t.Fatalf("read of the formerly poisoned block flagged: %+v", out.Violations)
			}
			if s := mc.Stats(); s.MemoPoisonDetected != 0 {
				t.Fatalf("MemoPoisonDetected = %d, want 0", s.MemoPoisonDetected)
			}
		})
	}
}

// TestDuplicateWritebackBenign: re-issuing a writeback is idempotent and
// must not trip any detector.
func TestDuplicateWritebackBenign(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 16, nil)
	mc.Write(0x5000)
	i := mc.Store().DataBlockIndex(0x5000)
	if err := mc.DuplicateWriteback(i); err != nil {
		t.Fatalf("DuplicateWriteback: %v", err)
	}
	if out := mc.Read(0x5000); len(out.Violations) != 0 {
		t.Fatalf("duplicate writeback flagged: %+v", out.Violations)
	}
}

// TestContentsDisabledTyped: content-dependent injection without
// TrackContents returns ErrContentsDisabled instead of panicking.
func TestContentsDisabledTyped(t *testing.T) {
	cfg := DefaultConfig(Baseline, counter.Morphable, 16<<20)
	mc := New(cfg) // TrackContents off
	for name, err := range map[string]error{
		"TamperCiphertext": mc.TamperCiphertext(0),
		"TamperMAC":        mc.TamperMAC(0),
		"TamperTransient":  mc.TamperTransient(0, 1),
		"DropNext":         mc.DropNextWriteback(0),
		"Duplicate":        mc.DuplicateWriteback(0),
		"Replay":           mc.ReplayOldCiphertext(0, [8]uint64{}, 0),
	} {
		if !errors.Is(err, ErrContentsDisabled) {
			t.Errorf("%s: err = %v, want ErrContentsDisabled", name, err)
		}
	}
	if ct, mac := mc.SnapshotCiphertext(0); ct != ([8]uint64{}) || mac != 0 {
		t.Error("SnapshotCiphertext without contents should return zeros")
	}
}
