package experiments

import (
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/stats"
)

// Ablation quantifies each RMCC design choice called out in DESIGN.md §6 by
// disabling it and re-measuring the memoization hit rate on counter misses
// and the accelerated-miss rate. Rows are design points; series are the two
// quality metrics averaged over a representative workload pair (canneal:
// highest counter-miss rate; pageRank: a typical graph kernel).
func Ablation(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Ablation: RMCC design choices (canneal/pageRank average)",
		Unit:   "%",
		Series: []string{"memo hit on miss", "accelerated"},
	}
	points := []struct {
		name   string
		mutate func(*engine.Config)
	}{
		{"full RMCC", func(*engine.Config) {}},
		{"no MRU evicted values", func(c *engine.Config) {
			c.L0Table.EnableMRU = false
			c.L1Table.EnableMRU = false
		}},
		{"no shadow groups", func(c *engine.Config) {
			c.L0Table.EnableShadow = false
			c.L1Table.EnableShadow = false
		}},
		{"no read-triggered update", func(c *engine.Config) {
			c.L0Table.EnableReadUpdate = false
		}},
		{"no L1 table", func(c *engine.Config) {
			// Starve the L1 table: no budget and no insertions means it
			// never adapts past boot, isolating the L0 table's effect.
			c.L1Table.BudgetFrac = 0
			c.L1Table.OverMaxThreshold = 1 << 62
		}},
	}
	names := []string{"canneal", "pageRank"}
	type metrics struct{ hit, acc float64 }
	cells := sweep(o, len(points), len(names), func(i, j int) metrics {
		cfg := o.lifetimeConfig(engine.RMCC, counter.Morphable)
		points[i].mutate(&cfg.Engine)
		res := o.lifetime(names[j], cfg)
		return metrics{res.Engine.MemoHitRateOnMisses(), res.Engine.AcceleratedRate()}
	})
	for i, p := range points {
		var hitSum, accSum float64
		for _, m := range cells[i] {
			hitSum += m.hit
			accSum += m.acc
		}
		t.Add(p.name, hitSum/float64(len(names)), accSum/float64(len(names)))
	}
	return t
}
