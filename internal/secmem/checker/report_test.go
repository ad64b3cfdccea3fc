package checker

import (
	"testing"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// TestReportClasses table-drives one corruption per violation class and
// asserts the checker attributes it to exactly that class.
func TestReportClasses(t *testing.T) {
	cases := []struct {
		name    string
		class   Class
		corrupt func(t *testing.T, mc *engine.MC, ck *Checker)
	}{
		{
			name:  "counter regression",
			class: ClassCounterRegression,
			corrupt: func(t *testing.T, mc *engine.MC, ck *Checker) {
				mc.Write(0x2000)
				ck.Check() // baseline after the legitimate advance
				i := mc.Store().DataBlockIndex(0x2000)
				mc.CorruptCounter(0, i, 0) // roll back
			},
		},
		{
			name:  "counter ceiling",
			class: ClassCounterCeiling,
			corrupt: func(t *testing.T, mc *engine.MC, ck *Checker) {
				i := mc.Store().DataBlockIndex(0x2000)
				mc.CorruptCounter(0, i, counter.MaxCounter+1)
			},
		},
		{
			name:  "tree regression",
			class: ClassTreeRegression,
			corrupt: func(t *testing.T, mc *engine.MC, ck *Checker) {
				st := mc.Store()
				x := -1
				for c := 0; c < st.TreeLevelLen(1); c++ {
					if st.Counter(1, c) > 0 {
						x = c
						break
					}
				}
				if x < 0 {
					t.Fatal("randomized init left every L1 counter zero")
				}
				mc.CorruptCounter(1, x, st.Counter(1, x)/2)
			},
		},
		{
			name:  "decrypt mismatch and mac failure",
			class: ClassMACFailure,
			corrupt: func(t *testing.T, mc *engine.MC, ck *Checker) {
				i := mc.Store().DataBlockIndex(0x3000)
				if err := mc.TamperCiphertext(i); err != nil {
					t.Fatalf("TamperCiphertext: %v", err)
				}
				mc.Read(0x3000)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc := newMC(t, engine.RMCC)
			ck := New(mc, 1)
			tc.corrupt(t, mc, ck)
			ck.Check()
			rep := ck.Report()
			if rep.Counts[tc.class] == 0 {
				t.Fatalf("class %v not reported; report: %v (violations: %v)",
					tc.class, rep, ck.Violations())
			}
			// No cross-talk into unrelated structural classes.
			for c := Class(0); c < NumClasses; c++ {
				if c == tc.class || rep.Counts[c] == 0 {
					continue
				}
				// Ciphertext tamper legitimately reports both the MAC and
				// the plaintext failure.
				if tc.class == ClassMACFailure && c == ClassDecryptMismatch {
					continue
				}
				t.Errorf("unexpected class %v in report: %v", c, rep)
			}
			if ck.Ok() {
				t.Error("Ok() true with violations recorded")
			}
			if len(ck.Typed()) != int(rep.Total) {
				t.Errorf("Typed() length %d != report total %d", len(ck.Typed()), rep.Total)
			}
		})
	}
}

// TestDeltaReportingNoDuplicates: an engine failure is surfaced exactly
// once, not re-reported by every later Check.
func TestDeltaReportingNoDuplicates(t *testing.T) {
	mc := newMC(t, engine.Baseline)
	ck := New(mc, 1)
	i := mc.Store().DataBlockIndex(0x2000)
	if err := mc.TamperCiphertext(i); err != nil {
		t.Fatalf("TamperCiphertext: %v", err)
	}
	mc.Read(0x2000)
	ck.Check()
	first := ck.Report().Counts[ClassMACFailure]
	if first == 0 {
		t.Fatal("tamper not reported")
	}
	ck.Check()
	ck.Check()
	if got := ck.Report().Counts[ClassMACFailure]; got != first {
		t.Errorf("MAC failure re-reported: %d -> %d", first, got)
	}
}

// TestRekeyAwareness: a whole-memory re-key resets every counter; the
// checker must re-baseline on the key-epoch change instead of flagging
// thousands of rollbacks.
func TestRekeyAwareness(t *testing.T) {
	mc := newMC(t, engine.RMCC)
	ck := New(mc, 1)
	for n := 0; n < 200; n++ {
		mc.Write(uint64(n) * 64)
	}
	ck.Check()
	if !ck.Ok() {
		t.Fatalf("pre-rekey violations: %v", ck.Violations())
	}
	out := mc.Rekey()
	if !out.Rekeyed {
		t.Fatal("Rekey did not run")
	}
	ck.Check()
	if !ck.Ok() {
		t.Fatalf("checker flagged the legitimate re-key: %v", ck.Violations())
	}
	// And it keeps guarding afterwards: a rollback in the new epoch is
	// still caught.
	mc.Write(0x2000)
	ck.Check()
	mc.CorruptCounter(0, mc.Store().DataBlockIndex(0x2000), 0)
	ck.Check()
	if ck.Report().Counts[ClassCounterRegression] == 0 {
		t.Error("post-rekey rollback missed")
	}
}

// TestCleanCannealRunNoFalsePositives steps a canneal lifetime run with a
// periodically-invoked checker: zero violations of any class.
func TestCleanCannealRunNoFalsePositives(t *testing.T) {
	eng := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	eng.TrackContents = true
	cfg := sim.DefaultLifetimeConfig(eng)
	cfg.Seed = 3
	w := workload.NewCanneal(workload.SizeTest)
	lt, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	ck := New(lt.MC(), 1)
	w.Run(cfg.Seed, func(a workload.Access) bool {
		lt.Step(a)
		if lt.Accesses()%5000 == 0 {
			ck.Check()
		}
		return lt.Accesses() < 200_000
	})
	ck.Check()
	if rep := ck.Report(); rep.Total != 0 {
		t.Fatalf("clean canneal run flagged: %v\nfirst: %v", rep, ck.Violations()[0])
	}
}
