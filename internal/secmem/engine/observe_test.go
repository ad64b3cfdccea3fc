package engine

import (
	"testing"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
)

// TestObservedTreeMaxMatchesStore regression-tests the §IV-D2 invariant the
// per-level observed-max registers exist for: after construction (randomized
// init + warm start) and after a burst of traffic, observedTreeMax[l] must
// upper-bound — and at boot exactly equal — the largest stored counter at
// level l. A register below the stored max would let the L1 table insert
// memoized groups at values the system claims it never reached; the
// historical hazard was warmStart rescanning only level 1.
func TestObservedTreeMaxMatchesStore(t *testing.T) {
	for _, scheme := range []counter.Scheme{counter.Morphable, counter.SGX} {
		mc := testMC(t, RMCC, scheme, 64, nil)
		checkTreeMax := func(when string, exact bool) {
			t.Helper()
			for l := 1; l <= mc.store.Levels(); l++ {
				max := treeMaxAtLevel(mc, l)
				got := mc.observedTreeMax[l]
				if exact && got != max {
					t.Fatalf("%s %s: observedTreeMax[%d] = %d, stored max = %d", scheme, when, l, got, max)
				}
				if !exact && got < max {
					t.Fatalf("%s %s: observedTreeMax[%d] = %d under-reads stored max %d", scheme, when, l, got, max)
				}
			}
		}
		checkTreeMax("at boot", true)
		for i := 0; i < 20_000; i++ {
			mc.Write(uint64(i%4096) * 64)
			mc.OnEpochAccess()
		}
		// After traffic the registers may exceed the stored max at levels
		// the incremental paths do not track, but must never under-read.
		checkTreeMax("after writes", false)
		if mc.observedTreeMax[1] < treeMaxAtLevel(mc, 1) {
			t.Fatalf("%s: level-1 register under-reads after writes", scheme)
		}
	}
}

func treeMaxAtLevel(mc *MC, l int) uint64 {
	var max uint64
	for c := 0; c < mc.store.TreeLevelLen(l); c++ {
		if v := mc.store.Counter(l, c); v > max {
			max = v
		}
	}
	return max
}

// TestTracerCountsMatchStats drives traffic with a tracer attached and
// cross-checks the tracer's per-kind counts against Stats(), the run's
// numbers.
func TestTracerCountsMatchStats(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, nil)
	tr := obs.NewTracer(1 << 12)
	mc.SetTracer(tr)

	for i := 0; i < 50_000; i++ {
		a := uint64(i%8192) * 64
		if i%3 == 0 {
			mc.Write(a)
		} else {
			mc.Read(a)
		}
		mc.OnEpochAccess()
	}

	s := mc.Stats()
	// Every processed access emitted exactly one counter-cache event, and
	// memo hit+miss events cover the Figure-19 lookups.
	hits := tr.CountByKind(obs.EvCtrCacheHit)
	misses := tr.CountByKind(obs.EvCtrCacheMiss)
	if hits != s.CtrL0Hits || misses != s.CtrL0Misses {
		t.Errorf("tracer ctr-cache counts (%d hit / %d miss) != stats (%d / %d)",
			hits, misses, s.CtrL0Hits, s.CtrL0Misses)
	}
	memoEvents := tr.CountByKind(obs.EvMemoHit) + tr.CountByKind(obs.EvMemoMiss)
	if memoEvents != s.L0MemoLookupsAll {
		t.Errorf("tracer memo events %d != L0MemoLookupsAll %d", memoEvents, s.L0MemoLookupsAll)
	}
	if tr.CountByKind(obs.EvMemoHit) != s.L0MemoHitsAll {
		t.Errorf("tracer memo hits %d != L0MemoHitsAll %d",
			tr.CountByKind(obs.EvMemoHit), s.L0MemoHitsAll)
	}
}

// TestStatsUnchangedByObservation: attaching a tracer must not change a
// single engine statistic — the rendered experiment tables derive from
// Stats() and must stay byte-identical with tracing on.
func TestStatsUnchangedByObservation(t *testing.T) {
	run := func(observe bool) Stats {
		mc := testMC(t, RMCC, counter.Morphable, 64, nil)
		if observe {
			mc.SetTracer(obs.NewTracer(1 << 10))
		}
		for i := 0; i < 30_000; i++ {
			a := uint64(i%4096) * 64
			if i%4 == 0 {
				mc.Write(a)
			} else {
				mc.Read(a)
			}
			mc.OnEpochAccess()
		}
		return mc.Stats()
	}
	plain, observed := run(false), run(true)
	if plain != observed {
		t.Fatalf("observation changed engine statistics:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

// TestReadHitPathAllocFreeObserved enforces the acceptance criterion that
// the read-hit path stays allocation-free with a tracer attached
// (BenchmarkEngineReadHitObserved measures the time cost).
func TestReadHitPathAllocFreeObserved(t *testing.T) {
	mc := testMC(t, RMCC, counter.Morphable, 64, nil)
	mc.SetTracer(obs.NewTracer(obs.DefaultTracerCap))
	mc.Read(0x100000)
	var i uint64
	allocs := testing.AllocsPerRun(2000, func() {
		mc.Read(0x100000 + (i&63)*64)
		i++
	})
	if allocs != 0 {
		t.Fatalf("read-hit path allocates %.1f/op with observation attached, want 0", allocs)
	}
}
