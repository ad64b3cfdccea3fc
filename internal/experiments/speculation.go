package experiments

import (
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/stats"
)

// ExtensionSpeculation compares RMCC against PoisonIvy-style speculative
// verification (paper §VII): speculation hides only the verification
// latency, while RMCC hides the counter-to-pad AES itself — and the two
// compose. Series are normalized to the non-secure system, on the three
// highest-counter-miss workloads.
func ExtensionSpeculation(o Options) *stats.Table {
	t := &stats.Table{
		Title: "Extension (§VII): speculative verification vs RMCC " +
			"(normalized to non-secure)",
		Unit:    "x",
		Series:  []string{"Morphable", "Morph+Spec", "RMCC", "RMCC+Spec"},
		GeoMean: true,
	}
	names := o.Workloads
	if names == nil {
		names = []string{"canneal", "omnetpp", "BFS"}
	}
	cfg := func(mode engine.Mode, spec bool) sim.DetailedConfig {
		c := o.detailedConfig(mode, counter.Morphable)
		c.SpeculativeVerification = spec
		return c
	}
	return o.normalized(t, names, []sim.DetailedConfig{
		cfg(engine.NonSecure, false),
		cfg(engine.Baseline, false),
		cfg(engine.Baseline, true),
		cfg(engine.RMCC, false),
		cfg(engine.RMCC, true),
	})
}
