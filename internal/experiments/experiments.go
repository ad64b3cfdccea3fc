// Package experiments regenerates every table and figure from the paper's
// evaluation (§III characterization and §VI results). Each FigureN function
// runs the necessary lifetime or detailed simulations across the eleven
// workloads and returns a stats.Table whose rows/series mirror the paper's
// plot. The bench harness (bench_test.go) and cmd/rmcc-experiments print
// them; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sidechan"
	"rmcc/internal/sim"
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

// workloads returns the selected workload list (fresh instances). The
// default is the paper's eleven — registered extras (e.g. the sidechannel
// adversaries) never enter a paper figure unless named explicitly.
func (o Options) workloads() []workload.Workload {
	all := workload.Suite(o.Size, o.Seed)
	names := o.Workloads
	if names == nil {
		names = workload.PaperNames()
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []workload.Workload
	for _, w := range all {
		if want[w.Name()] {
			out = append(out, w)
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

// runKey identifies one detailed simulation for result caching: the
// detailed figures share most of their runs (Figure 13's Morphable run is
// Figure 14's and Figure 17's 15 ns point), and all runs are deterministic.
type runKey struct {
	name     string
	mode     engine.Mode
	scheme   counter.Scheme
	aesNS    int64
	ctrKB    int
	spec     bool
	hardened bool
	size     workload.Size
	seed     uint64
	warm     uint64
	meas     uint64
}

// detailedEntry is one cached detailed simulation. The per-entry Once is
// what makes the cache safe under the parallel sweep: two goroutines that
// need the same run rendezvous on the entry, exactly one executes the
// simulation, and the other blocks until the result is ready instead of
// duplicating hours of work.
type detailedEntry struct {
	once sync.Once
	res  sim.DetailedResult
}

var (
	detailedCacheMu sync.Mutex
	detailedCache   = map[runKey]*detailedEntry{}
	detailedBuilds  atomic.Uint64 // simulations actually executed (dedup tests)
)

// detailedRun executes (or recalls) one detailed simulation.
func (o Options) detailedRun(name string, mode engine.Mode, scheme counter.Scheme,
	aesNS int64, ctrKB int, spec bool) sim.DetailedResult {
	return o.detailedRunH(name, mode, scheme, aesNS, ctrKB, spec, false)
}

// detailedRunH is detailedRun with the hardened (randomized-insertion)
// table mode as an extra axis — the FigureHardenedCost runs.
func (o Options) detailedRunH(name string, mode engine.Mode, scheme counter.Scheme,
	aesNS int64, ctrKB int, spec, hardened bool) sim.DetailedResult {
	key := runKey{name, mode, scheme, aesNS, ctrKB, spec, hardened,
		o.Size, o.Seed, o.WarmupAccesses, o.MeasureAccesses}
	detailedCacheMu.Lock()
	e, ok := detailedCache[key]
	if !ok {
		e = &detailedEntry{}
		detailedCache[key] = e
	}
	detailedCacheMu.Unlock()
	e.once.Do(func() {
		detailedBuilds.Add(1)
		w, ok := workload.ByName(o.Size, o.Seed, name)
		if !ok {
			panic("experiments: unknown workload " + name)
		}
		cfg := o.detailedConfig(mode, scheme)
		cfg.AESLat = aesNS * 1000
		cfg.Engine.CounterCacheBytes = ctrKB << 10
		cfg.SpeculativeVerification = spec
		if hardened {
			sidechan.HardenConfig(&cfg.Engine, o.Seed)
		}
		e.res = sim.RunDetailed(w, cfg)
	})
	return e.res
}

// Figure3 measures counter-cache misses per LLC miss under Morphable
// Counters (the paper's §III characterization).
func Figure3(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 3: counter cache misses per LLC miss (Morphable, 32KB counter cache)",
		Unit:   "%",
		Series: []string{"ctr miss rate"},
	}
	ws := o.workloads()
	rows := make([][]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		res := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.Baseline, counter.Morphable))
		rows[i] = []float64{res.Engine.CtrMissRate()}
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure4 measures TLB misses normalized to LLC misses under 4 KB and 2 MB
// pages.
func Figure4(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 4: TLB misses per LLC miss (1536-entry TLB)",
		Unit:   "%",
		Series: []string{"4KB pages", "2MB pages"},
	}
	ws := o.workloads()
	rows := make([][]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		res := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.Baseline, counter.Morphable))
		misses := float64(res.LLCMisses())
		if misses == 0 {
			misses = 1
		}
		rows[i] = []float64{
			float64(res.TLB4KMisses) / misses,
			float64(res.TLB2MMisses) / misses,
		}
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure10 breaks the memoization hit rate on counter misses into the two
// sources: live Memoized Counter Value Groups and the MRU evicted-value
// cache (§IV-C4).
func Figure10(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 10: memoization hit rate for counter misses, by source",
		Unit:   "%",
		Series: []string{"groups", "recently-used", "total"},
	}
	ws := o.workloads()
	rows := make([][]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		res := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.RMCC, counter.Morphable))
		e := res.Engine
		den := float64(e.L0MemoLookupsOnMiss)
		if den == 0 {
			den = 1
		}
		g := float64(e.L0MemoGroupHitsOnMiss) / den
		m := float64(e.L0MemoMRUHitsOnMiss) / den
		rows[i] = []float64{g, m, g + m}
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure12 breaks down DRAM bandwidth utilization under Morphable.
func Figure12(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 12: bandwidth utilization by traffic type (Morphable)",
		Unit:   "%",
		Series: []string{"data", "counters", "L0 overflow", "L1+ overflow", "total"},
	}
	ws := o.workloads()
	rows := make([][]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		res := o.detailedRun(ws[i].Name(), engine.Baseline, counter.Morphable, 15, 128, false)
		u := res.DRAM.UtilizationByKind(res.WindowTime)
		total := res.DRAM.Utilization(res.WindowTime)
		rows[i] = []float64{
			u["data"], u["counters"], u["level 0 overflow"],
			u["level 1 and higher overflow"], total,
		}
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
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
	ws := o.workloads()
	type modePoint struct {
		mode   engine.Mode
		scheme counter.Scheme
	}
	points := []modePoint{
		{engine.NonSecure, counter.Morphable},
		{engine.Baseline, counter.SC64},
		{engine.Baseline, counter.Morphable},
		{engine.RMCC, counter.Morphable},
	}
	ipc := make([][]float64, len(ws))
	for i := range ipc {
		ipc[i] = make([]float64, len(points))
	}
	o.forEachCell(len(ws), len(points), func(i, p int) {
		res := o.detailedRun(ws[i].Name(), points[p].mode, points[p].scheme, 15, 128, false)
		ipc[i][p] = res.IPC
	})
	for i, w := range ws {
		ns := ipc[i][0]
		t.Add(w.Name(), ipc[i][1]/ns, ipc[i][2]/ns, ipc[i][3]/ns)
	}
	return t
}

// Figure14 measures average LLC miss latency.
func Figure14(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 14: average LLC miss latency",
		Unit:   "ns",
		Series: []string{"SC-64", "Morphable", "RMCC", "Non-secure"},
	}
	ws := o.workloads()
	type modePoint struct {
		mode   engine.Mode
		scheme counter.Scheme
	}
	points := []modePoint{
		{engine.Baseline, counter.SC64},
		{engine.Baseline, counter.Morphable},
		{engine.RMCC, counter.Morphable},
		{engine.NonSecure, counter.Morphable},
	}
	lat := make([][]float64, len(ws))
	for i := range lat {
		lat[i] = make([]float64, len(points))
	}
	o.forEachCell(len(ws), len(points), func(i, p int) {
		res := o.detailedRun(ws[i].Name(), points[p].mode, points[p].scheme, 15, 128, false)
		lat[i][p] = res.AvgMissLatencyNS
	})
	for i, w := range ws {
		t.Add(w.Name(), lat[i]...)
	}
	return t
}

// Figure15 measures the average number of blocks covered by each memoized
// counter value at the end of each workload's lifetime.
func Figure15(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 15: blocks covered per memoized counter value",
		Series: []string{"blocks"},
	}
	ws := o.workloads()
	rows := make([]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		res := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.RMCC, counter.Morphable))
		rows[i] = res.CoveragePerValue
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i])
	}
	return t
}

// Figure16 measures RMCC's memory traffic overhead over Morphable, split
// into the L0-memoization and L1-memoization contributions.
func Figure16(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 16: traffic overhead of RMCC vs Morphable (1%+1% budgets)",
		Unit:   "%",
		Series: []string{"memoizing L0", "memoizing L1", "total"},
	}
	ws := o.workloads()
	rows := make([][]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		name := ws[i].Name()
		base := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.Baseline, counter.Morphable))
		w2, _ := workload.ByName(o.Size, o.Seed, name)
		rm := sim.RunLifetime(w2, o.lifetimeConfig(engine.RMCC, counter.Morphable))
		bt := float64(base.Engine.TotalTraffic())
		if bt == 0 {
			bt = 1
		}
		l0 := float64(rm.Engine.OverheadL0Blocks) / bt
		l1 := float64(rm.Engine.OverheadL1Blocks) / bt
		total := float64(rm.Engine.TotalTraffic())/bt - 1
		if total < 0 {
			total = 0
		}
		rows[i] = []float64{l0, l1, total}
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure17 measures RMCC's speedup over Morphable at 15 ns (AES-128) and
// 22 ns (AES-256) latencies.
func Figure17(o Options) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 17: RMCC speedup over Morphable vs AES latency",
		Unit:    "x",
		Series:  []string{"15ns AES", "22ns AES"},
		GeoMean: true,
	}
	ws := o.workloads()
	lats := []int64{15, 22}
	rows := make([][]float64, len(ws))
	for i := range rows {
		rows[i] = make([]float64, len(lats))
	}
	o.forEachCell(len(ws), len(lats), func(i, p int) {
		name := ws[i].Name()
		mo := o.detailedRun(name, engine.Baseline, counter.Morphable, lats[p], 128, false)
		rm := o.detailedRun(name, engine.RMCC, counter.Morphable, lats[p], 128, false)
		rows[i][p] = rm.IPC / mo.IPC
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure18 measures RMCC's speedup over Morphable under 128/256/512 KB
// counter caches.
func Figure18(o Options) *stats.Table {
	t := &stats.Table{
		Title:   "Figure 18: RMCC speedup over Morphable vs counter cache size",
		Unit:    "x",
		Series:  []string{"128KB", "256KB", "512KB"},
		GeoMean: true,
	}
	ws := o.workloads()
	sizes := []int{128, 256, 512}
	rows := make([][]float64, len(ws))
	for i := range rows {
		rows[i] = make([]float64, len(sizes))
	}
	o.forEachCell(len(ws), len(sizes), func(i, p int) {
		name := ws[i].Name()
		mo := o.detailedRun(name, engine.Baseline, counter.Morphable, 15, sizes[p], false)
		rm := o.detailedRun(name, engine.RMCC, counter.Morphable, 15, sizes[p], false)
		rows[i][p] = rm.IPC / mo.IPC
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure19 measures memoization hit rate (over all accessed counter
// values) under 1 %, 2 % and 8 % bandwidth budgets.
func Figure19(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 19: memoization hit rate vs bandwidth budget",
		Unit:   "%",
		Series: []string{"1% budget", "2% budget", "8% budget"},
	}
	ws := o.workloads()
	fracs := []float64{0.01, 0.02, 0.08}
	rows := make([][]float64, len(ws))
	for i := range rows {
		rows[i] = make([]float64, len(fracs))
	}
	o.forEachCell(len(ws), len(fracs), func(i, p int) {
		wl, _ := workload.ByName(o.Size, o.Seed, ws[i].Name())
		cfg := o.lifetimeConfig(engine.RMCC, counter.Morphable)
		cfg.Engine.L0Table.BudgetFrac = fracs[p]
		cfg.Engine.L1Table.BudgetFrac = fracs[p]
		res := sim.RunLifetime(wl, cfg)
		rows[i][p] = res.Engine.MemoHitRateAll()
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}

// Figure20 measures traffic overhead vs Morphable under the same budgets.
func Figure20(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Figure 20: traffic overhead vs bandwidth budget",
		Unit:   "%",
		Series: []string{"1% budget", "2% budget", "8% budget"},
	}
	ws := o.workloads()
	fracs := []float64{0.01, 0.02, 0.08}
	// Cell p == 0 is the Morphable baseline; cells 1..3 are the budget runs.
	traffic := make([][]uint64, len(ws))
	for i := range traffic {
		traffic[i] = make([]uint64, len(fracs)+1)
	}
	o.forEachCell(len(ws), len(fracs)+1, func(i, p int) {
		if p == 0 {
			res := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.Baseline, counter.Morphable))
			traffic[i][0] = res.Engine.TotalTraffic()
			return
		}
		wl, _ := workload.ByName(o.Size, o.Seed, ws[i].Name())
		cfg := o.lifetimeConfig(engine.RMCC, counter.Morphable)
		cfg.Engine.L0Table.BudgetFrac = fracs[p-1]
		cfg.Engine.L1Table.BudgetFrac = fracs[p-1]
		res := sim.RunLifetime(wl, cfg)
		traffic[i][p] = res.Engine.TotalTraffic()
	})
	for i, w := range ws {
		bt := float64(traffic[i][0])
		if bt == 0 {
			bt = 1
		}
		row := make([]float64, 0, len(fracs))
		for p := 1; p <= len(fracs); p++ {
			over := float64(traffic[i][p])/bt - 1
			if over < 0 {
				over = 0
			}
			row = append(row, over)
		}
		t.Add(w.Name(), row...)
	}
	return t
}

// groupSweep runs RMCC lifetime sims across Memoized Counter Value Group
// sizes 4/8/16 at a constant 128 table entries.
func groupSweep(o Options, metric func(sim.LifetimeResult, sim.LifetimeResult) float64, title, unit string) *stats.Table {
	t := &stats.Table{
		Title:  title,
		Unit:   unit,
		Series: []string{"group size 4", "group size 8", "group size 16"},
	}
	ws := o.workloads()
	sizes := []int{4, 8, 16}
	// Cell p == 0 is the Morphable baseline; cells 1..3 sweep the group size.
	results := make([][]sim.LifetimeResult, len(ws))
	for i := range results {
		results[i] = make([]sim.LifetimeResult, len(sizes)+1)
	}
	o.forEachCell(len(ws), len(sizes)+1, func(i, p int) {
		if p == 0 {
			results[i][0] = sim.RunLifetime(ws[i], o.lifetimeConfig(engine.Baseline, counter.Morphable))
			return
		}
		gs := sizes[p-1]
		wl, _ := workload.ByName(o.Size, o.Seed, ws[i].Name())
		cfg := o.lifetimeConfig(engine.RMCC, counter.Morphable)
		cfg.Engine.L0Table.GroupSize = gs
		cfg.Engine.L0Table.Groups = 128 / gs
		cfg.Engine.L1Table.GroupSize = gs
		cfg.Engine.L1Table.Groups = 128 / gs
		results[i][p] = sim.RunLifetime(wl, cfg)
	})
	for i, w := range ws {
		row := make([]float64, 0, len(sizes))
		for p := 1; p <= len(sizes); p++ {
			row = append(row, metric(results[i][p], results[i][0]))
		}
		t.Add(w.Name(), row...)
	}
	return t
}

// Figure21 measures memoization hit rate vs group size.
func Figure21(o Options) *stats.Table {
	return groupSweep(o,
		func(r, _ sim.LifetimeResult) float64 { return r.Engine.MemoHitRateAll() },
		"Figure 21: memoization hit rate vs Memoized Counter Value Group size (128 entries)",
		"%")
}

// Figure22 measures traffic overhead vs group size.
func Figure22(o Options) *stats.Table {
	return groupSweep(o,
		func(r, base sim.LifetimeResult) float64 {
			bt := float64(base.Engine.TotalTraffic())
			if bt == 0 {
				return 0
			}
			over := float64(r.Engine.TotalTraffic())/bt - 1
			if over < 0 {
				over = 0
			}
			return over
		},
		"Figure 22: traffic overhead vs Memoized Counter Value Group size (128 entries)",
		"%")
}

// Headline reproduces the §VI text numbers: the fraction of counter misses
// RMCC accelerates (92 % in the paper), the L1 memoization hit rate on L1
// misses (87 %), and the max-counter growth vs Morphable (+24 %).
func Headline(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Headline (§VI): accelerated counter misses / L1 memo hits / max counter growth",
		Unit:   "%",
		Series: []string{"accelerated", "L1 memo hit", "max ctr growth"},
	}
	ws := o.workloads()
	rows := make([][]float64, len(ws))
	o.forEachIndex(len(ws), func(i int) {
		base := sim.RunLifetime(ws[i], o.lifetimeConfig(engine.Baseline, counter.Morphable))
		wl, _ := workload.ByName(o.Size, o.Seed, ws[i].Name())
		rm := sim.RunLifetime(wl, o.lifetimeConfig(engine.RMCC, counter.Morphable))
		l1Rate := 0.0
		if rm.Engine.L1MemoLookupsOnMiss > 0 {
			l1Rate = float64(rm.Engine.L1MemoHitsOnMiss) / float64(rm.Engine.L1MemoLookupsOnMiss)
		}
		growth := 0.0
		if base.MaxCounter > 0 {
			growth = float64(rm.MaxCounter)/float64(base.MaxCounter) - 1
		}
		rows[i] = []float64{rm.Engine.AcceleratedRate(), l1Rate, growth}
	})
	for i, w := range ws {
		t.Add(w.Name(), rows[i]...)
	}
	return t
}
