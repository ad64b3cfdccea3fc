package sidechan

import (
	"fmt"

	"rmcc/internal/core"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// LeakageOptions configures one leakage measurement.
type LeakageOptions struct {
	// Mode/Scheme select the engine configuration under test (via
	// engine.DefaultConfig, like the experiment harness).
	Mode   engine.Mode
	Scheme counter.Scheme
	// Hardened applies HardenConfig (randomized group insertion).
	Hardened bool
	// Seed drives both the adversary's class schedule and the engine.
	Seed uint64
	// Epochs is the number of attacker epochs to run and analyze.
	Epochs int
	// Analyzer overrides the observable binning (zero value = defaults).
	Analyzer AnalyzerConfig
}

// LeakageResult is one adversary × configuration measurement.
type LeakageResult struct {
	Report   Report
	Accesses uint64
	Lifetime sim.LifetimeResult
}

// HardenConfig switches cfg's memoization tables to seeded randomized
// group insertion — the hardened RMCC mode. The secret in the insertion
// channel is the *position* of the new group relative to the previous
// table max; drawing the start uniformly from the watchpoint ladder
// decorrelates that position from the victim's counter at the cost of
// less precise placement (quantified by FigureHardenedCost).
func HardenConfig(cfg *engine.Config, seed uint64) {
	cfg.L0Table.RandomizeInsertion = true
	cfg.L0Table.InsertSeed = seed ^ 0x5eeded11
	cfg.L1Table.RandomizeInsertion = true
	cfg.L1Table.InsertSeed = seed ^ 0x5eeded22
}

// leakageEngineConfig builds the engine configuration for a leakage run:
// the standard mode/scheme defaults with deterministic initial state and a
// short-horizon table policy so the insertion machinery engages once per
// attacker epoch (shadow/MRU off so the insertion channel is undiluted —
// the attacker measures the *mechanism*, not a tuned production point).
// The threshold/quantile pair is tuned to the PrimeProbe epoch: the
// over-max threshold (448) exceeds the victim's write-phase fetch-reads
// plus the background writer's (≤ 240/epoch combined) so the insertion
// always fires inside the 480-read victim burst, and the coverage
// quantile tolerates the ~128 background reads above every watchpoint
// while still rejecting any start below the victim's counter (which would
// strand ≥ 300 burst reads uncovered). docs/SIDECHANNEL.md walks the
// arithmetic.
func leakageEngineConfig(opt LeakageOptions, epochMC uint64) engine.Config {
	cfg := engine.DefaultConfig(opt.Mode, opt.Scheme, 0)
	cfg.InitSeed = opt.Seed
	cfg.RandomizeInit = false
	cfg.WarmStartFrac = 0
	for _, tc := range []*core.Config{&cfg.L0Table, &cfg.L1Table} {
		tc.OverMaxThreshold = 448
		tc.CoverageQuantile = 0.993
		// Align the table's maintenance epoch to exactly one attacker
		// epoch of MC traffic (the warmup is padded to one such epoch
		// too), so the coverage quantile's read denominator always spans
		// one attacker epoch — out of phase, the denominator inflates and
		// the start falls off the watchpoint ladder.
		tc.EpochAccesses = epochMC
		tc.EnableShadow = false
		tc.EnableMRU = false
		// Read-triggered counter updates would advance counters on the
		// attacker's own probe reads, polluting the insertion arithmetic.
		tc.EnableReadUpdate = false
	}
	if opt.Hardened {
		HardenConfig(&cfg, opt.Seed)
	}
	return cfg
}

// RunLeakage runs adv against the configured engine for opt.Epochs
// attacker epochs, feeding the event stream through an Analyzer attached
// after the adversary's warmup prefix, and closing one analyzer epoch per
// attacker epoch under the class Schedule reproduces. Deterministic per
// (adversary, options): same inputs, byte-identical Report.
func RunLeakage(adv Adversary, opt LeakageOptions) (LeakageResult, error) {
	if opt.Epochs <= 0 {
		opt.Epochs = 32
	}
	engCfg := leakageEngineConfig(opt, adv.EpochMCAccesses())
	ltCfg := sim.DefaultLifetimeConfig(engCfg)
	ltCfg.Seed = opt.Seed
	tracer := obs.NewTracer(256)
	ltCfg.Tracer = tracer

	lt, err := sim.NewLifetimeChecked(adv.Name(), adv.FootprintBytes(), ltCfg)
	if err != nil {
		return LeakageResult{}, fmt.Errorf("sidechan: build lifetime: %w", err)
	}

	an := NewAnalyzer(opt.Analyzer)
	schedule := adv.Schedule(opt.Seed, opt.Epochs)
	warm := adv.WarmupAccesses()
	per := adv.EpochAccesses()
	if warm == 0 {
		tracer.SetSink(an)
	}

	var n uint64
	epoch := 0
	adv.Run(opt.Seed, func(a workload.Access) bool {
		if err := lt.Step(a); err != nil {
			// Memory is sized from the adversary's own footprint.
			panic(err)
		}
		n++
		if n == warm {
			// Warmup done: only now do observables count toward epochs.
			tracer.SetSink(an)
			return true
		}
		if n > warm && (n-warm)%per == 0 {
			an.CloseEpoch(schedule[epoch])
			epoch++
			if epoch == len(schedule) {
				return false
			}
		}
		return true
	})
	tracer.SetSink(nil)

	return LeakageResult{
		Report:   an.Report(),
		Accesses: lt.Accesses(),
		Lifetime: lt.Result(),
	}, nil
}
