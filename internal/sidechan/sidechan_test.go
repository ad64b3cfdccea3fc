package sidechan

import (
	"testing"

	"rmcc/internal/workload"
)

// capture collects the first n accesses of a stream.
func capture(n int, run func(workload.Sink)) []workload.Access {
	out := make([]workload.Access, 0, n)
	run(func(a workload.Access) bool {
		out = append(out, a)
		return len(out) < n
	})
	return out
}

func sameStream(a, b []workload.Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAdversaryDeterminism: the same seed must reproduce a byte-identical
// access stream — the leakage driver's Schedule/Run pairing and every
// figure's reproducibility depend on it.
func TestAdversaryDeterminism(t *testing.T) {
	for _, adv := range []Adversary{NewPrimeProbe(), NewMemJam()} {
		n := int(adv.WarmupAccesses() + 3*adv.EpochAccesses())
		s1 := capture(n, func(s workload.Sink) { adv.Run(7, s) })
		s2 := capture(n, func(s workload.Sink) { adv.Run(7, s) })
		if !sameStream(s1, s2) {
			t.Errorf("%s: same seed produced different streams", adv.Name())
		}
		s3 := capture(n, func(s workload.Sink) { adv.Run(8, s) })
		if sameStream(s1, s3) {
			t.Errorf("%s: different seeds produced identical streams", adv.Name())
		}
	}
}

// TestScheduleDeterminism: Schedule must reproduce the classes Run draws.
func TestScheduleDeterminism(t *testing.T) {
	for _, adv := range []Adversary{NewPrimeProbe(), NewMemJam()} {
		a := adv.Schedule(3, 40)
		b := adv.Schedule(3, 40)
		if len(a) != 40 {
			t.Fatalf("%s: schedule length %d", adv.Name(), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: schedule not deterministic at %d", adv.Name(), i)
			}
			if a[i] < 0 || a[i] >= adv.Classes() {
				t.Errorf("%s: class %d out of range", adv.Name(), a[i])
			}
		}
	}
}

// TestEpochAccounting pins the derived epoch lengths: the leakage driver's
// table-epoch alignment (EpochMCAccesses) and epoch slicing (EpochAccesses)
// silently desynchronize if a phase count changes without these.
func TestEpochAccounting(t *testing.T) {
	pp := NewPrimeProbe()
	if got := pp.EpochAccesses(); got != 30672 {
		t.Errorf("ppSweep EpochAccesses = %d, want 30672", got)
	}
	if got := pp.EpochMCAccesses(); got != 30912 {
		t.Errorf("ppSweep EpochMCAccesses = %d, want 30912", got)
	}
	if got := pp.WarmupAccesses(); got != 30544 {
		t.Errorf("ppSweep WarmupAccesses = %d, want 30544", got)
	}
	mj := NewMemJam()
	if got := mj.EpochAccesses(); got != 1512 {
		t.Errorf("memjam4k EpochAccesses = %d, want 1512", got)
	}
	if got := mj.EpochMCAccesses(); got != 1504 {
		t.Errorf("memjam4k EpochMCAccesses = %d, want 1504", got)
	}

	// The epoch access counts must match what Run actually emits: capture
	// warmup + 2 epochs and check the boundaries line up exactly.
	for _, adv := range []Adversary{NewPrimeProbe(), NewMemJam()} {
		warm, per := int(adv.WarmupAccesses()), int(adv.EpochAccesses())
		s := capture(warm+2*per, func(sk workload.Sink) { adv.Run(1, sk) })
		if len(s) != warm+2*per {
			t.Errorf("%s: stream ended early (%d < %d)", adv.Name(), len(s), warm+2*per)
		}
	}
}

// TestRegistryResolution: the adversaries must resolve through the shared
// workload registry (the path rmccd, rmcc-loadgen and rmccsim use).
func TestRegistryResolution(t *testing.T) {
	for _, name := range []string{"ppSweep", "memjam4k"} {
		w, ok := workload.ByName(workload.SizeTest, 1, name)
		if !ok {
			t.Fatalf("workload.ByName(%q) did not resolve", name)
		}
		if _, ok := w.(Adversary); !ok {
			t.Fatalf("%q does not implement sidechan.Adversary", name)
		}
	}
	names := workload.Names()
	found := 0
	for _, n := range names {
		if n == "ppSweep" || n == "memjam4k" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("workload.Names() = %v, want both adversaries listed", names)
	}
}
