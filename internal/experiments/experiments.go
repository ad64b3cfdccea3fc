// Package experiments regenerates every table and figure from the paper's
// evaluation (§III characterization and §VI results). Each FigureN function
// runs the necessary lifetime or detailed simulations across the eleven
// workloads and returns a stats.Table whose rows/series mirror the paper's
// plot. The bench harness (bench_test.go) and cmd/rmcc-experiments print
// them; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"rmcc/internal/core"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/sim/event"
	"rmcc/internal/stats"
	"rmcc/internal/workload"
)

// Options scale the experiment suite. The zero value is unusable; use
// DefaultOptions or QuickOptions.
type Options struct {
	Size      workload.Size
	Seed      uint64
	Workloads []string // subset filter; nil = all eleven

	// Lifetime driver scale.
	LifetimeAccesses uint64

	// Detailed driver scale.
	WarmupAccesses  uint64
	MeasureAccesses uint64

	// Epoch scale for the memoization tables. The paper's epoch is 1 M
	// memory accesses; scaled runs shrink it proportionally so the
	// adaptive machinery (insertions, budget refresh) still cycles.
	EpochAccesses    uint64
	OverMaxThreshold uint64

	// Parallelism caps the worker pool fanning independent workload and
	// sweep-point cells across goroutines. 0 or 1 runs sequentially;
	// negative uses one worker per CPU. Results are collected by index, so
	// every table is byte-identical whatever the setting.
	Parallelism int

	// Context, when set, cancels the sweep: workers stop picking up new
	// cells once it is done, so a figure returns early with the remaining
	// cells at their zero values. Cells already running finish (each is an
	// uninterruptible single simulation). nil means never cancelled.
	Context context.Context
}

// DefaultOptions is the full-scale configuration used for EXPERIMENTS.md:
// the paper's epoch (1 M accesses) and thresholds, full workload footprints
// (hundreds of MB), and windows sized so the whole 15-figure suite
// completes in a few hours of single-core simulation.
func DefaultOptions() Options {
	return Options{
		Size:             workload.SizeFull,
		Seed:             1,
		LifetimeAccesses: 8_000_000,
		WarmupAccesses:   200_000,
		MeasureAccesses:  800_000,
		EpochAccesses:    1_000_000,
		OverMaxThreshold: 2048,
	}
}

// QuickOptions is a scaled-down configuration for benches and CI: small
// workloads, short windows, proportionally shorter epochs.
func QuickOptions() Options {
	return Options{
		Size:             workload.SizeSmall,
		Seed:             1,
		LifetimeAccesses: 3_000_000,
		WarmupAccesses:   150_000,
		MeasureAccesses:  500_000,
		EpochAccesses:    100_000,
		OverMaxThreshold: 512,
	}
}

// names returns the selected workload names in suite order. The default is
// the paper's eleven — registered extras (e.g. the sidechannel adversaries)
// never enter a paper figure unless named explicitly.
func (o Options) names() []string {
	if o.Workloads == nil {
		return workload.PaperNames()
	}
	var out []string
	for _, n := range workload.Names() {
		if slices.Contains(o.Workloads, n) {
			out = append(out, n)
		}
	}
	return out
}

// engineConfig assembles an MC configuration with the options' epoch scale.
func (o Options) engineConfig(mode engine.Mode, scheme counter.Scheme) engine.Config {
	cfg := engine.DefaultConfig(mode, scheme, 0)
	cfg.InitSeed = o.Seed
	cfg.L0Table.EpochAccesses = o.EpochAccesses
	cfg.L1Table.EpochAccesses = o.EpochAccesses
	cfg.L0Table.OverMaxThreshold = o.OverMaxThreshold
	cfg.L1Table.OverMaxThreshold = o.OverMaxThreshold
	return cfg
}

func (o Options) lifetimeConfig(mode engine.Mode, scheme counter.Scheme) sim.LifetimeConfig {
	cfg := sim.DefaultLifetimeConfig(o.engineConfig(mode, scheme))
	cfg.MaxAccesses = o.LifetimeAccesses
	cfg.Seed = o.Seed
	return cfg
}

func (o Options) detailedConfig(mode engine.Mode, scheme counter.Scheme) sim.DetailedConfig {
	cfg := sim.DefaultDetailedConfig(o.engineConfig(mode, scheme))
	cfg.Seed = o.Seed
	cfg.WarmupAccesses = o.WarmupAccesses
	cfg.MeasureAccesses = o.MeasureAccesses
	if o.Size != workload.SizeFull {
		// Scale the LLC with the smaller workloads so the miss regime
		// matches the paper's (footprint >> LLC), and shorten the atomic
		// fast-forward to just clear the kernels' init phases.
		cfg.LLC.SizeBytes = 2 << 20
		cfg.FastForwardAccesses = 1_200_000
	} else {
		// Full-scale kernels open with multi-million-access init phases
		// (label/color/distance array initialization over 4M vertices);
		// fast-forward past them so the observation window measures the
		// kernel proper, like the paper's region-of-interest warmup.
		cfg.FastForwardAccesses = 6_000_000
	}
	return cfg
}

// runKey identifies one simulation: the workload, built at the options'
// size and seed, and the driver's whole resolved configuration. Two cells
// share a run exactly when they would simulate the same thing.
type runKey[C comparable] struct {
	name string
	size workload.Size
	seed uint64
	cfg  C
}

// runCache runs each distinct simulation once and hands its result to every
// figure that asks for it: the Morphable lifetime run serves Figures 3, 4,
// 16, 20-22 and the headline, and Figure 13's Morphable detailed run is
// Figure 14's and Figure 17's 15 ns point. All runs are deterministic. The
// per-entry Once is what makes the cache safe under the parallel sweep: two
// goroutines that need the same run rendezvous on the entry, exactly one
// executes the simulation, and the other blocks until the result is ready.
type runCache[C comparable, R any] struct {
	simulate func(workload.Workload, C) R
	builds   atomic.Uint64 // simulations actually executed

	mu   sync.Mutex
	runs map[runKey[C]]*cachedRun[R]
}

type cachedRun[R any] struct {
	once sync.Once
	res  R
}

var (
	lifetimeRuns = &runCache[sim.LifetimeConfig, sim.LifetimeResult]{simulate: sim.RunLifetime}
	detailedRuns = &runCache[sim.DetailedConfig, sim.DetailedResult]{simulate: sim.RunDetailed}
)

func (c *runCache[C, R]) run(o Options, name string, cfg C) R {
	key := runKey[C]{name, o.Size, o.Seed, cfg}
	c.mu.Lock()
	if c.runs == nil {
		c.runs = map[runKey[C]]*cachedRun[R]{}
	}
	r, ok := c.runs[key]
	if !ok {
		r = &cachedRun[R]{}
		c.runs[key] = r
	}
	c.mu.Unlock()
	r.once.Do(func() {
		c.builds.Add(1)
		w, ok := workload.ByName(o.Size, o.Seed, name)
		if !ok {
			panic("experiments: unknown workload " + name)
		}
		r.res = c.simulate(w, cfg)
	})
	return r.res
}

// lifetime executes (or recalls) one lifetime simulation.
func (o Options) lifetime(name string, cfg sim.LifetimeConfig) sim.LifetimeResult {
	return lifetimeRuns.run(o, name, cfg)
}

// detailed executes (or recalls) one detailed simulation.
func (o Options) detailed(name string, cfg sim.DetailedConfig) sim.DetailedResult {
	return detailedRuns.run(o, name, cfg)
}

// morphable and rmcc are the lifetime runs most figures compare: the
// Morphable baseline, and RMCC at its default 1 % budgets with 8-value
// groups.
func (o Options) morphable(name string) sim.LifetimeResult {
	return o.lifetime(name, o.lifetimeConfig(engine.Baseline, counter.Morphable))
}

func (o Options) rmcc(name string) sim.LifetimeResult {
	return o.lifetime(name, o.lifetimeConfig(engine.RMCC, counter.Morphable))
}

// trafficOverhead is rm's memory traffic beyond the Morphable baseline's on
// the same workload, as a fraction of the baseline's (0 when the baseline
// moved nothing, and never negative).
func (o Options) trafficOverhead(name string, rm sim.LifetimeResult) float64 {
	bt := float64(o.morphable(name).Engine.TotalTraffic())
	if bt == 0 {
		return 0
	}
	return max(float64(rm.Engine.TotalTraffic())/bt-1, 0)
}

// perWorkload adds one row per selected workload to t, computing the rows
// across the worker pool.
func (o Options) perWorkload(t *stats.Table, row func(name string) []float64) *stats.Table {
	names := o.names()
	rows := sweep(o, len(names), 1, func(i, _ int) []float64 { return row(names[i]) })
	for i, name := range names {
		t.Add(name, rows[i][0]...)
	}
	return t
}

// perPoint adds one row per selected workload to t, with one cell per sweep
// point, computing every cell across the worker pool.
func (o Options) perPoint(t *stats.Table, points int, cell func(name string, p int) float64) *stats.Table {
	names := o.names()
	rows := sweep(o, len(names), points, func(i, p int) float64 { return cell(names[i], p) })
	for i, name := range names {
		t.Add(name, rows[i]...)
	}
	return t
}

// Figure3 measures counter-cache misses per LLC miss under Morphable
// Counters (the paper's §III characterization).
func Figure3(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Figure 3: counter cache misses per LLC miss (Morphable, 32KB counter cache)",
		Unit:   "%",
		Series: []string{"ctr miss rate"},
	}, func(name string) []float64 {
		return []float64{o.morphable(name).Engine.CtrMissRate()}
	})
}

// Figure4 measures TLB misses normalized to LLC misses under 4 KB and 2 MB
// pages.
func Figure4(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Figure 4: TLB misses per LLC miss (1536-entry TLB)",
		Unit:   "%",
		Series: []string{"4KB pages", "2MB pages"},
	}, func(name string) []float64 {
		res := o.morphable(name)
		misses := float64(max(res.LLCMisses(), 1))
		return []float64{float64(res.TLB4KMisses) / misses, float64(res.TLB2MMisses) / misses}
	})
}

// Figure10 breaks the memoization hit rate on counter misses into the two
// sources: live Memoized Counter Value Groups and the MRU evicted-value
// cache (§IV-C4).
func Figure10(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Figure 10: memoization hit rate for counter misses, by source",
		Unit:   "%",
		Series: []string{"groups", "recently-used", "total"},
	}, func(name string) []float64 {
		e := o.rmcc(name).Engine
		den := float64(max(e.L0MemoLookupsOnMiss, 1))
		g := float64(e.L0MemoGroupHitsOnMiss) / den
		m := float64(e.L0MemoMRUHitsOnMiss) / den
		return []float64{g, m, g + m}
	})
}

// Figure12 breaks down DRAM bandwidth utilization under Morphable.
func Figure12(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Figure 12: bandwidth utilization by traffic type (Morphable)",
		Unit:   "%",
		Series: []string{"data", "counters", "L0 overflow", "L1+ overflow", "total"},
	}, func(name string) []float64 {
		res := o.detailed(name, o.detailedConfig(engine.Baseline, counter.Morphable))
		u := res.DRAM.UtilizationByKind(res.WindowTime)
		return []float64{
			u["data"], u["counters"], u["level 0 overflow"],
			u["level 1 and higher overflow"], res.DRAM.Utilization(res.WindowTime),
		}
	})
}

// Figure13 measures performance of SC-64, Morphable and RMCC normalized to
// a non-secure memory system — the paper's headline plot.
func Figure13(o Options) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 13: performance normalized to non-secure",
		Unit:    "x",
		Series:  []string{"SC-64", "Morphable", "RMCC"},
		GeoMean: true,
	}
	cfgs := []sim.DetailedConfig{
		o.detailedConfig(engine.NonSecure, counter.Morphable),
		o.detailedConfig(engine.Baseline, counter.SC64),
		o.detailedConfig(engine.Baseline, counter.Morphable),
		o.detailedConfig(engine.RMCC, counter.Morphable),
	}
	return o.normalized(t, o.names(), cfgs)
}

// normalized adds one row per named workload to t: the IPC of cfgs[1:],
// each divided by the IPC of cfgs[0] on the same workload.
func (o Options) normalized(t *stats.Table, names []string, cfgs []sim.DetailedConfig) *stats.Table {
	ipc := sweep(o, len(names), len(cfgs), func(i, p int) float64 {
		return o.detailed(names[i], cfgs[p]).IPC
	})
	for i, name := range names {
		row := make([]float64, len(cfgs)-1)
		for p := range row {
			row[p] = ipc[i][p+1] / ipc[i][0]
		}
		t.Add(name, row...)
	}
	return t
}

// Figure14 measures average LLC miss latency.
func Figure14(o Options) *stats.Table {
	cfgs := []sim.DetailedConfig{
		o.detailedConfig(engine.Baseline, counter.SC64),
		o.detailedConfig(engine.Baseline, counter.Morphable),
		o.detailedConfig(engine.RMCC, counter.Morphable),
		o.detailedConfig(engine.NonSecure, counter.Morphable),
	}
	return o.perPoint(&stats.Table{
		Title:  "Figure 14: average LLC miss latency",
		Unit:   "ns",
		Series: []string{"SC-64", "Morphable", "RMCC", "Non-secure"},
	}, len(cfgs), func(name string, p int) float64 {
		return o.detailed(name, cfgs[p]).AvgMissLatencyNS
	})
}

// Figure15 measures the average number of blocks covered by each memoized
// counter value at the end of each workload's lifetime.
func Figure15(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Figure 15: blocks covered per memoized counter value",
		Series: []string{"blocks"},
	}, func(name string) []float64 {
		return []float64{o.rmcc(name).CoveragePerValue}
	})
}

// Figure16 measures RMCC's memory traffic overhead over Morphable, split
// into the L0-memoization and L1-memoization contributions.
func Figure16(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Figure 16: traffic overhead of RMCC vs Morphable (1%+1% budgets)",
		Unit:   "%",
		Series: []string{"memoizing L0", "memoizing L1", "total"},
	}, func(name string) []float64 {
		rm := o.rmcc(name)
		bt := float64(max(o.morphable(name).Engine.TotalTraffic(), 1))
		return []float64{
			float64(rm.Engine.OverheadL0Blocks) / bt,
			float64(rm.Engine.OverheadL1Blocks) / bt,
			o.trafficOverhead(name, rm),
		}
	})
}

// rmccSpeedup adds one row per selected workload to t: RMCC's speedup over
// Morphable at each point of a sweep of one detailed-configuration field,
// which set applies.
func (o Options) rmccSpeedup(t *stats.Table, points int, set func(cfg *sim.DetailedConfig, p int)) *stats.Table {
	return o.perPoint(t, points, func(name string, p int) float64 {
		mo := o.detailedConfig(engine.Baseline, counter.Morphable)
		rm := o.detailedConfig(engine.RMCC, counter.Morphable)
		set(&mo, p)
		set(&rm, p)
		return o.detailed(name, rm).IPC / o.detailed(name, mo).IPC
	})
}

// Figure17 measures RMCC's speedup over Morphable at 15 ns (AES-128) and
// 22 ns (AES-256) latencies.
func Figure17(o Options) *stats.Table {
	lats := []event.Time{15 * event.Nanosecond, 22 * event.Nanosecond}
	return o.rmccSpeedup(&stats.Table{
		Title:   "Figure 17: RMCC speedup over Morphable vs AES latency",
		Unit:    "x",
		Series:  []string{"15ns AES", "22ns AES"},
		GeoMean: true,
	}, len(lats), func(cfg *sim.DetailedConfig, p int) { cfg.AESLat = lats[p] })
}

// Figure18 measures RMCC's speedup over Morphable under 128/256/512 KB
// counter caches.
func Figure18(o Options) *stats.Table {
	sizes := []int{128 << 10, 256 << 10, 512 << 10}
	return o.rmccSpeedup(&stats.Table{
		Title:   "Figure 18: RMCC speedup over Morphable vs counter cache size",
		Unit:    "x",
		Series:  []string{"128KB", "256KB", "512KB"},
		GeoMean: true,
	}, len(sizes), func(cfg *sim.DetailedConfig, p int) { cfg.Engine.CounterCacheBytes = sizes[p] })
}

// tableSweep adds one row per selected workload to t: metric of the RMCC
// lifetime run at each point of a sweep of the memoization tables'
// configuration, which set applies to both tables.
func (o Options) tableSweep(t *stats.Table, points int, set func(c *core.Config, p int),
	metric func(name string, rm sim.LifetimeResult) float64) *stats.Table {
	return o.perPoint(t, points, func(name string, p int) float64 {
		cfg := o.lifetimeConfig(engine.RMCC, counter.Morphable)
		set(&cfg.Engine.L0Table, p)
		set(&cfg.Engine.L1Table, p)
		return metric(name, o.lifetime(name, cfg))
	})
}

// budgets sets the 1 %, 2 % and 8 % bandwidth budgets of Figures 19-20.
func budgets(c *core.Config, p int) { c.BudgetFrac = []float64{0.01, 0.02, 0.08}[p] }

// groupSizes sets Memoized Counter Value Groups of 4, 8 and 16 values at a
// constant 128 table entries (Figures 21-22).
func groupSizes(c *core.Config, p int) {
	c.GroupSize = []int{4, 8, 16}[p]
	c.Groups = 128 / c.GroupSize
}

func memoHitRate(_ string, rm sim.LifetimeResult) float64 { return rm.Engine.MemoHitRateAll() }

// Figure19 measures memoization hit rate (over all accessed counter
// values) under 1 %, 2 % and 8 % bandwidth budgets.
func Figure19(o Options) *stats.Table {
	return o.tableSweep(&stats.Table{
		Title:  "Figure 19: memoization hit rate vs bandwidth budget",
		Unit:   "%",
		Series: []string{"1% budget", "2% budget", "8% budget"},
	}, 3, budgets, memoHitRate)
}

// Figure20 measures traffic overhead vs Morphable under the same budgets.
func Figure20(o Options) *stats.Table {
	return o.tableSweep(&stats.Table{
		Title:  "Figure 20: traffic overhead vs bandwidth budget",
		Unit:   "%",
		Series: []string{"1% budget", "2% budget", "8% budget"},
	}, 3, budgets, o.trafficOverhead)
}

// Figure21 measures memoization hit rate vs group size.
func Figure21(o Options) *stats.Table {
	return o.tableSweep(&stats.Table{
		Title:  "Figure 21: memoization hit rate vs Memoized Counter Value Group size (128 entries)",
		Unit:   "%",
		Series: []string{"group size 4", "group size 8", "group size 16"},
	}, 3, groupSizes, memoHitRate)
}

// Figure22 measures traffic overhead vs group size.
func Figure22(o Options) *stats.Table {
	return o.tableSweep(&stats.Table{
		Title:  "Figure 22: traffic overhead vs Memoized Counter Value Group size (128 entries)",
		Unit:   "%",
		Series: []string{"group size 4", "group size 8", "group size 16"},
	}, 3, groupSizes, o.trafficOverhead)
}

// Headline reproduces the §VI text numbers: the fraction of counter misses
// RMCC accelerates (92 % in the paper), the L1 memoization hit rate on L1
// misses (87 %), and the max-counter growth vs Morphable (+24 %).
func Headline(o Options) *stats.Table {
	return o.perWorkload(&stats.Table{
		Title:  "Headline (§VI): accelerated counter misses / L1 memo hits / max counter growth",
		Unit:   "%",
		Series: []string{"accelerated", "L1 memo hit", "max ctr growth"},
	}, func(name string) []float64 {
		base, rm := o.morphable(name), o.rmcc(name)
		l1Rate := 0.0
		if rm.Engine.L1MemoLookupsOnMiss > 0 {
			l1Rate = float64(rm.Engine.L1MemoHitsOnMiss) / float64(rm.Engine.L1MemoLookupsOnMiss)
		}
		growth := 0.0
		if base.MaxCounter > 0 {
			growth = float64(rm.MaxCounter)/float64(base.MaxCounter) - 1
		}
		return []float64{rm.Engine.AcceleratedRate(), l1Rate, growth}
	})
}
