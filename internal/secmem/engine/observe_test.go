package engine

import (
	"testing"

	"rmcc/internal/obs"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/snapshot"
)

// TestObservedMaxEveryLevel checks the §IV-D2 invariant the per-level
// observed-max registers exist for, at every counter level: each register
// reads the largest value its level has ever held. At boot that is the
// stored maximum, or at levels 0 and 1, which warm start rebases, the
// maximum Randomize drew if that is larger. After traffic through a small
// counter cache, which moves every tree level, it is the larger of the
// boot register and the stored maximum. A snapshot round trip keeps the
// registers, and a re-key zeroes them. A register that stops following
// its level reads below the stored maximum here.
func TestObservedMaxEveryLevel(t *testing.T) {
	for _, scheme := range []counter.Scheme{counter.SGX, counter.SC64, counter.Morphable} {
		cfg := DefaultConfig(RMCC, scheme, 64<<20)
		cfg.CounterCacheBytes, cfg.CounterCacheWays = 4<<10, 4
		mc := New(cfg)
		st := mc.Store()
		randomized := counter.NewStore(scheme, cfg.MemBytes)
		randomized.Randomize(rng.New(cfg.InitSeed), counter.DefaultRandomize())
		boot := make([]uint64, st.Levels()+1)
		for l := range boot {
			boot[l] = max(levelMax(st, l), levelMax(randomized, l))
			if got := st.ObservedMax(l); got != boot[l] {
				t.Fatalf("%v at boot: ObservedMax(%d) = %d, want %d", scheme, l, got, boot[l])
			}
		}
		r := rng.New(1)
		for range 400_000 {
			mc.Write(st.DataBlockAddr(r.Intn(st.NumDataBlocks())))
			mc.OnEpochAccess()
		}
		for l := range boot {
			if got, want := st.ObservedMax(l), max(boot[l], levelMax(st, l)); got != want {
				t.Errorf("%v after writes: ObservedMax(%d) = %d, want %d", scheme, l, got, want)
			}
		}
		var e snapshot.Enc
		mc.EncodeState(&e)
		restored := New(cfg)
		if err := restored.DecodeState(snapshot.NewDec(e.Data())); err != nil {
			t.Fatal(err)
		}
		for l := range boot {
			if got, want := restored.Store().ObservedMax(l), st.ObservedMax(l); got != want {
				t.Errorf("%v restored: ObservedMax(%d) = %d, want %d", scheme, l, got, want)
			}
		}
		mc.Rekey()
		for l := range boot {
			if got := st.ObservedMax(l); got != 0 {
				t.Errorf("%v after a re-key: ObservedMax(%d) = %d, want 0", scheme, l, got)
			}
		}
	}
}

// levelMax returns the largest counter stored at level l.
func levelMax(st *counter.Store, l int) uint64 {
	var hi uint64
	for c := 0; c < st.TreeLevelLen(l); c++ {
		hi = max(hi, st.Counter(l, c))
	}
	return hi
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
