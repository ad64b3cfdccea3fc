// Package rmcc is the public facade of the RMCC reproduction: a secure
// memory system simulator implementing Self-Reinforcing Memoization for
// Cryptography Calculations (Wang et al., MICRO 2022) together with every
// substrate it needs — counter-mode memory encryption and integrity (SGX
// style), SC-64 and Morphable split counters, an integrity tree, a counter
// cache, an out-of-order CPU window model, a DDR4 timing model, and the
// paper's eleven workloads.
//
// Typical use (see example_test.go):
//
//	mc := rmcc.NewController(rmcc.ModeRMCC, rmcc.SchemeMorphable, 256<<20)
//	out := mc.Read(0x1000)        // one LLC miss through the secure MC
//	fmt.Println(out.L0MemoHit)    // did memoization skip the AES?
//
// or run whole experiments:
//
//	w, _ := rmcc.WorkloadByName(rmcc.SizeSmall, 1, "canneal")
//	res := rmcc.RunLifetime(w, rmcc.DefaultLifetimeConfig(
//	    rmcc.DefaultEngineConfig(rmcc.ModeRMCC, rmcc.SchemeMorphable)))
//	fmt.Printf("memoization hit rate: %.1f%%\n", 100*res.Engine.MemoHitRateOnMisses())
package rmcc

import (
	"rmcc/internal/core"
	"rmcc/internal/experiments"
	"rmcc/internal/fault"
	"rmcc/internal/secmem/checker"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sim"
	"rmcc/internal/stats"
	"rmcc/internal/workload"
)

// Counter organizations (paper baselines).
const (
	SchemeSGX       = counter.SGX
	SchemeSC64      = counter.SC64
	SchemeMorphable = counter.Morphable
)

// Scheme selects a counter organization.
type Scheme = counter.Scheme

// Protection modes.
const (
	ModeNonSecure = engine.NonSecure
	ModeBaseline  = engine.Baseline
	ModeRMCC      = engine.RMCC
)

// Mode selects the protection level.
type Mode = engine.Mode

// Controller is the secure memory controller (functional model).
type Controller = engine.MC

// ControllerConfig parameterizes a Controller.
type ControllerConfig = engine.Config

// Outcome describes what one access caused at the controller.
type Outcome = engine.Outcome

// EngineStats aggregates controller activity.
type EngineStats = engine.Stats

// TableConfig parameterizes a memoization table (the paper's core
// structure).
type TableConfig = core.Config

// MemoTable is the RMCC memoization table.
type MemoTable = core.Table

// Workload is a deterministic access-stream generator.
type Workload = workload.Workload

// Workload scales.
const (
	SizeTest  = workload.SizeTest
	SizeSmall = workload.SizeSmall
	SizeFull  = workload.SizeFull
)

// Size selects workload scale.
type Size = workload.Size

// Simulation configurations and results.
type (
	// LifetimeConfig parameterizes the functional (Pintool-analog) driver.
	LifetimeConfig = sim.LifetimeConfig
	// LifetimeResult is a whole-lifetime functional result.
	LifetimeResult = sim.LifetimeResult
	// DetailedConfig parameterizes the timing (Gem5-analog) driver.
	DetailedConfig = sim.DetailedConfig
	// DetailedResult is an observation-window timing result.
	DetailedResult = sim.DetailedResult
	// ResultTable is a figure-shaped result table.
	ResultTable = stats.Table
	// ExperimentOptions scale the figure-regeneration harness.
	ExperimentOptions = experiments.Options
)

// DefaultEngineConfig returns the paper's Table-I controller configuration
// for the given mode and scheme. Memory size is filled in by the
// simulation drivers (or set MemBytes yourself for direct Controller use).
func DefaultEngineConfig(mode Mode, scheme Scheme) ControllerConfig {
	return engine.DefaultConfig(mode, scheme, 0)
}

// NewController builds a standalone secure memory controller over memBytes
// of protected memory, with functional content tracking enabled so reads
// verify decryption and MACs end to end.
func NewController(mode Mode, scheme Scheme, memBytes uint64) *Controller {
	cfg := engine.DefaultConfig(mode, scheme, memBytes)
	cfg.TrackContents = true
	return engine.New(cfg)
}

// NewControllerWithConfig builds a controller from an explicit
// configuration (set MemBytes; see DefaultEngineConfig for a starting
// point). The configuration is validated first; an invalid one panics
// with the Validate error (use NewControllerChecked for an error return).
func NewControllerWithConfig(cfg ControllerConfig) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return engine.New(cfg)
}

// NewControllerChecked is NewControllerWithConfig with an error return
// instead of a panic on invalid configuration.
func NewControllerChecked(cfg ControllerConfig) (*Controller, error) {
	return engine.NewChecked(cfg)
}

// DefaultLifetimeConfig mirrors the paper's Pintool setup.
func DefaultLifetimeConfig(eng ControllerConfig) LifetimeConfig {
	return sim.DefaultLifetimeConfig(eng)
}

// DefaultDetailedConfig mirrors the paper's Gem5/Table-I setup.
func DefaultDetailedConfig(eng ControllerConfig) DetailedConfig {
	return sim.DefaultDetailedConfig(eng)
}

// RunLifetime executes a whole-lifetime functional simulation.
func RunLifetime(w Workload, cfg LifetimeConfig) LifetimeResult {
	return sim.RunLifetime(w, cfg)
}

// RunDetailed executes a timing simulation.
func RunDetailed(w Workload, cfg DetailedConfig) DetailedResult {
	return sim.RunDetailed(w, cfg)
}

// Workloads builds every available workload at the given scale: the
// paper's eleven benchmarks followed by registered extras (the sidechannel
// adversaries ppSweep and memjam4k).
func Workloads(size Size, seed uint64) []Workload {
	return workload.Suite(size, seed)
}

// WorkloadNames lists every workload name: the eleven benchmarks in the
// paper's figure order, then registered extras.
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName returns one benchmark from a fresh suite.
func WorkloadByName(size Size, seed uint64, name string) (Workload, bool) {
	return workload.ByName(size, seed, name)
}

// Recovery policies: how the controller responds to a detected integrity
// violation (see docs/FAULTS.md).
const (
	RecoveryFailStop     = engine.FailStop
	RecoveryRetryRefetch = engine.RetryRefetch
	RecoveryRekey        = engine.RekeyRecover
)

// RecoveryPolicy selects the violation response.
type RecoveryPolicy = engine.RecoveryPolicy

// Typed failure classes surfaced on Outcome.Violations; classify with
// errors.Is against the engine sentinels.
type (
	// IntegrityError is one detected violation.
	IntegrityError = engine.IntegrityError
	// ViolationKind classifies an IntegrityError.
	ViolationKind = engine.ViolationKind
)

// Sentinel errors for errors.Is classification.
var (
	ErrInvalidConfig      = engine.ErrInvalidConfig
	ErrIntegrityViolation = engine.ErrIntegrityViolation
	ErrCounterOverflow    = engine.ErrCounterOverflow
	ErrMetadataCorruption = engine.ErrMetadataCorruption
	ErrMemoCorruption     = engine.ErrMemoCorruption
)

// Fault injection and invariant checking (see docs/FAULTS.md).
type (
	// FaultKind enumerates the injectable faults.
	FaultKind = fault.Kind
	// Fault is one scheduled injection.
	Fault = fault.Fault
	// FaultSchedule is a reproducible fault plan.
	FaultSchedule = fault.Schedule
	// FaultCampaign replays a workload while injecting a schedule.
	FaultCampaign = fault.Campaign
	// FaultCampaignResult aggregates a campaign run.
	FaultCampaignResult = fault.CampaignResult
	// InvariantChecker validates security invariants over a controller.
	InvariantChecker = checker.Checker
	// CheckerReport summarizes checker violations by class.
	CheckerReport = checker.Report
)

// NewFaultSchedule derives a reproducible fault plan from a seed (nil
// kinds = one fault of every kind).
func NewFaultSchedule(seed uint64, kinds []FaultKind, span uint64) FaultSchedule {
	return fault.NewSchedule(seed, kinds, span)
}

// AllFaultKinds lists every injectable fault kind.
func AllFaultKinds() []FaultKind { return fault.AllKinds() }

// NewInvariantChecker wraps a controller with the security-invariant
// checker (sampleStride 1 tracks every block).
func NewInvariantChecker(mc *Controller, sampleStride int) *InvariantChecker {
	return checker.New(mc, sampleStride)
}

// Experiment configurations.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions returns a scaled-down option set for fast runs.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// Experiments maps figure names to their regeneration functions, in the
// paper's order.
func Experiments() []struct {
	Name string
	Run  func(ExperimentOptions) *ResultTable
} {
	return []struct {
		Name string
		Run  func(ExperimentOptions) *ResultTable
	}{
		{"figure3", experiments.Figure3},
		{"figure4", experiments.Figure4},
		{"figure10", experiments.Figure10},
		{"figure12", experiments.Figure12},
		{"figure13", experiments.Figure13},
		{"figure14", experiments.Figure14},
		{"figure15", experiments.Figure15},
		{"figure16", experiments.Figure16},
		{"figure17", experiments.Figure17},
		{"figure18", experiments.Figure18},
		{"figure19", experiments.Figure19},
		{"figure20", experiments.Figure20},
		{"figure21", experiments.Figure21},
		{"figure22", experiments.Figure22},
		{"headline", experiments.Headline},
		{"convergence", experiments.Convergence},
		{"ablation", experiments.Ablation},
		{"speculation", experiments.ExtensionSpeculation},
		{"leakage", experiments.FigureLeakage},
		{"hardenedCost", experiments.FigureHardenedCost},
	}
}
