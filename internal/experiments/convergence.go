package experiments

import (
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/stats"
)

// Convergence validates the *self-reinforcing* part of RMCC organically: a
// cold-started system (randomized counters, no warm start) is simulated
// for increasing lifetimes and the cumulative memoization hit rate on
// counter misses is reported. The rate must grow monotonically-ish toward
// the steady state that the warm-started figure runs measure — this is the
// dynamic the paper amortizes over whole application lifetimes.
func Convergence(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Convergence: memoization hit rate vs lifetime (cold start)",
		Unit:   "%",
		Series: []string{"0.5x", "1x", "2x", "4x"},
	}
	base := o.LifetimeAccesses
	if base == 0 {
		base = 1_000_000
	}
	names := []string{"canneal", "pageRank"}
	mults := []uint64{1, 2, 4, 8}
	rows := sweep(o, len(names), len(mults), func(i, p int) float64 {
		cfg := o.lifetimeConfig(engine.RMCC, counter.Morphable)
		cfg.Engine.WarmStartFrac = 0 // cold start: organic convergence
		cfg.MaxAccesses = base * mults[p] / 2
		return o.lifetime(names[i], cfg).Engine.MemoHitRateOnMisses()
	})
	for i, name := range names {
		t.Add(name, rows[i]...)
	}
	return t
}
