// Package engine implements the secure memory controller: encryption,
// integrity verification, the MC counter cache, the integrity-tree walk,
// overflow (relevel) handling, and — when enabled — the RMCC memoization
// tables with their memoization-aware counter-update policy.
//
// The engine is *functional*: it decides what happens on each LLC miss
// (which counter blocks hit or miss, which memoizations hit, what extra
// traffic is generated) and keeps all counter and cache state. It carries
// no clock. The lifetime simulator consumes its outcomes directly (the
// Pintool analog); the detailed simulator converts each Outcome into DRAM
// requests and latency composition (the Gem5 analog).
package engine

import (
	"fmt"

	"rmcc/internal/core"
	"rmcc/internal/crypto/otp"
	"rmcc/internal/mem/cache"
	"rmcc/internal/mem/dram"
	"rmcc/internal/obs"
	"rmcc/internal/rng"
	"rmcc/internal/secmem/counter"
)

// Mode selects the protection level.
type Mode int

// Protection modes.
const (
	// NonSecure disables encryption and integrity entirely (the paper's
	// normalization baseline).
	NonSecure Mode = iota
	// Baseline protects memory with the configured counter scheme and a
	// counter cache, but no memoization.
	Baseline
	// RMCC adds the memoization tables and memoization-aware counter
	// update on top of Baseline.
	RMCC
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case NonSecure:
		return "non-secure"
	case Baseline:
		return "baseline"
	case RMCC:
		return "RMCC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps the mode names "nonsecure", "baseline" and "rmcc" (as
// flags and the rmccd wire spell them) to modes.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "nonsecure":
		return NonSecure, nil
	case "baseline":
		return Baseline, nil
	case "rmcc":
		return RMCC, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// Config parameterizes the memory controller.
type Config struct {
	Mode   Mode
	Scheme counter.Scheme
	// MemBytes is the protected data footprint (block-aligned).
	MemBytes uint64

	// CounterCacheBytes/Ways size the MC counter cache (Table I: 128 KB,
	// 32-way). It holds L0 counter blocks and integrity-tree nodes.
	CounterCacheBytes int
	CounterCacheWays  int

	// L0Table and L1Table configure the two memoization tables (RMCC mode).
	L0Table core.Config
	L1Table core.Config

	// KeyMaster seeds key derivation; AES256 selects 14-round AES for the
	// 22 ns sensitivity point.
	KeyMaster [16]byte
	AES256    bool

	// TrackContents maintains a real plaintext/ciphertext image of memory
	// and verifies every decryption and MAC check. Intended for tests and
	// small footprints: it costs ~128 B per touched block.
	TrackContents bool

	// InitSeed and Randomize control the paper's non-zero counter
	// initialization (§V Lifetime Characterization).
	InitSeed      uint64
	RandomizeInit bool

	// WarmStartFrac applies only to RMCC mode with randomized counters:
	// this fraction of counter groups starts releveled onto memoized
	// values, and the memoization tables are seeded with those values —
	// the steady state a long-running RMCC system reaches (the paper
	// measures after a 25-billion-instruction warmup and across whole
	// application lifetimes). Set to 0 to start cold and watch organic
	// convergence instead (the convergence experiment does exactly that).
	WarmStartFrac float64

	// Recovery selects the response to detected integrity violations
	// (fail-stop, retry-refetch, or re-key). Counter overflow at the
	// 56-bit ceiling always triggers the re-key/reboot regardless of this
	// knob — the architecture has no other sound response.
	Recovery RecoveryPolicy
	// RetryLimit bounds re-fetch attempts under RetryRefetch/RekeyRecover
	// (transient bus faults clear on re-read; persistent corruption
	// escalates). Zero disables retries.
	RetryLimit int
}

// Validate checks the configuration, wrapping every failure in
// ErrInvalidConfig so callers can classify with errors.Is.
func (cfg Config) Validate() error {
	if cfg.Mode < NonSecure || cfg.Mode > RMCC {
		return fmt.Errorf("%w: unknown mode %d", ErrInvalidConfig, int(cfg.Mode))
	}
	if cfg.Recovery < FailStop || cfg.Recovery > RekeyRecover {
		return fmt.Errorf("%w: unknown recovery policy %d", ErrInvalidConfig, int(cfg.Recovery))
	}
	if cfg.RetryLimit < 0 {
		return fmt.Errorf("%w: negative RetryLimit %d", ErrInvalidConfig, cfg.RetryLimit)
	}
	if cfg.Mode == NonSecure {
		return nil
	}
	if cfg.Scheme.Coverage() == 0 {
		return fmt.Errorf("%w: unknown counter scheme %d", ErrInvalidConfig, int(cfg.Scheme))
	}
	if cfg.MemBytes == 0 || cfg.MemBytes%counter.BlockBytes != 0 {
		return fmt.Errorf("%w: MemBytes %d not a positive multiple of %d",
			ErrInvalidConfig, cfg.MemBytes, counter.BlockBytes)
	}
	ccfg := cache.Config{
		SizeBytes: cfg.CounterCacheBytes,
		Ways:      cfg.CounterCacheWays,
		LineBytes: counter.BlockBytes,
	}
	if err := ccfg.Validate(); err != nil {
		return fmt.Errorf("%w: counter cache: %v", ErrInvalidConfig, err)
	}
	if cfg.WarmStartFrac < 0 || cfg.WarmStartFrac > 1 {
		return fmt.Errorf("%w: WarmStartFrac %v out of [0,1]", ErrInvalidConfig, cfg.WarmStartFrac)
	}
	if cfg.Mode == RMCC {
		if err := cfg.L0Table.Validate(); err != nil {
			return fmt.Errorf("%w: L0 table: %v", ErrInvalidConfig, err)
		}
		if err := cfg.L1Table.Validate(); err != nil {
			return fmt.Errorf("%w: L1 table: %v", ErrInvalidConfig, err)
		}
	}
	return nil
}

// DefaultConfig returns a Table-I configuration of the given mode/scheme.
func DefaultConfig(mode Mode, scheme counter.Scheme, memBytes uint64) Config {
	return Config{
		Mode:              mode,
		Scheme:            scheme,
		MemBytes:          memBytes,
		CounterCacheBytes: 128 << 10,
		CounterCacheWays:  32,
		L0Table:           core.DefaultConfig(),
		L1Table:           core.DefaultConfig(),
		KeyMaster:         [16]byte{0x52, 0x4d, 0x43, 0x43}, // "RMCC"
		InitSeed:          1,
		RandomizeInit:     true,
		WarmStartFrac:     0.9,
		RetryLimit:        2,
	}
}

// Traffic is one 64-byte DRAM transfer the MC generated beyond the data
// access itself.
type Traffic struct {
	Addr  uint64
	Write bool
	Kind  dram.Kind
}

// ChainFetch is one counter-chain block that missed in the counter cache
// and must come from DRAM, together with whether its *parent* counter's
// cryptographic contribution was memoized (which is what accelerates the
// verification of this block / decryption of the data below it).
type ChainFetch struct {
	Addr  uint64
	Level int // 0 = L0 counter block, 1 = L1 tree node, ...
	// MemoHit reports whether the counter value needed to *use* this
	// block's contents (the data counter for level 0, the child counter
	// for higher levels) found its AES result memoized.
	MemoHit bool
	// MemoSource breaks hits down for Figure 10.
	MemoSource core.HitSource
}

// Outcome describes everything one LLC miss caused.
type Outcome struct {
	DataAddr uint64
	Write    bool

	// CtrCacheHit: the L0 counter block was resident (reads and writes).
	CtrCacheHit bool
	// Chain lists counter-chain fetches from DRAM, ordered L0 upward.
	//
	// Chain and Extra are backed by controller-owned scratch storage that
	// the next Read/Write on the same controller reuses, so steady-state
	// accesses allocate nothing; callers that retain them across accesses
	// must copy. OverflowTraffic is always freshly allocated — the detailed
	// simulator's overflow engine drains it asynchronously.
	Chain []ChainFetch
	// L0MemoHit/L0MemoSource: the data block's counter value was memoized
	// (meaningful in RMCC mode; used for both timing and Figure 10/19).
	L0MemoHit    bool
	L0MemoSource core.HitSource

	// Extra DRAM traffic: counter writebacks from cache evictions,
	// read-triggered update writes, and MAC/ciphertext rewrites.
	Extra []Traffic
	// OverflowTraffic lists relevel transfers, routed through the
	// overflow engine (bounded concurrency) by the detailed simulator.
	OverflowTraffic []Traffic
	// Stalled marks accesses the MC rejected because two overflows were
	// already outstanding (the detailed simulator retries them).
	Accelerated bool // the §VI headline condition for this miss

	// Violations lists every integrity violation the MC detected while
	// processing this access (typed; nil on clean accesses). Entries with
	// Recovered set were repaired in-line per the RecoveryPolicy.
	Violations []*IntegrityError
	// Rekeyed reports that this access triggered the whole-memory
	// re-key/reboot (56-bit counter ceiling, or RekeyRecover escalation).
	Rekeyed bool
}

// Err returns the first unrecovered violation of the access, or nil. It is
// the error-shaped view of Violations for fail-stop callers.
func (o *Outcome) Err() error {
	for _, v := range o.Violations {
		if !v.Recovered {
			return v
		}
	}
	return nil
}

// MC is the secure memory controller. Not safe for concurrent use.
type MC struct {
	cfg      Config
	store    *counter.Store
	ctrCache *cache.Cache
	unit     *otp.Unit
	l0Table  *core.Table
	l1Table  *core.Table

	// observedTreeMax[l] tracks the largest tree counter per level (the
	// L1 table's System-Max analog).
	observedTreeMax []uint64

	contents *contentStore

	// keyEpoch counts whole-memory re-keys (0 at boot).
	keyEpoch uint64
	// pending collects violations detected while processing the current
	// access; drained onto its Outcome.
	pending []*IntegrityError
	// needRekey defers a re-key triggered mid-walk (tree-counter ceiling,
	// RekeyRecover escalation) to the end of the current access.
	needRekey bool

	// scratchExtra and scratchChain back Outcome.Extra/Outcome.Chain and
	// are reused by the next access (see the Outcome field docs), keeping
	// the steady-state Read/Write paths allocation-free.
	scratchExtra []Traffic
	scratchChain []ChainFetch

	stats Stats

	// trace, when attached via SetTracer, receives per-access lifecycle
	// events; nil (the default) disables tracing at the cost of one branch
	// per emit site.
	trace *obs.Tracer
}

// New builds a memory controller; it panics on invalid configuration (the
// configuration is experiment-defined, not user input). Use NewChecked to
// handle configuration errors instead.
func New(cfg Config) *MC {
	mc, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return mc
}

// NewChecked builds a memory controller, returning an error (wrapping
// ErrInvalidConfig) instead of panicking on invalid configuration.
func NewChecked(cfg Config) (*MC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mc := &MC{cfg: cfg}
	if cfg.Mode == NonSecure {
		return mc, nil
	}
	mc.store = counter.NewStore(cfg.Scheme, cfg.MemBytes)
	mc.ctrCache = mc.newCounterCache()
	mc.unit = mc.deriveUnit()
	mc.observedTreeMax = make([]uint64, mc.store.Levels()+1)
	if cfg.RandomizeInit {
		mc.store.Randomize(rng.New(cfg.InitSeed), counter.DefaultRandomize())
		// Seed the per-level max registers from the randomized state.
		mc.rescanTreeMax()
	}
	if cfg.Mode == RMCC {
		mc.buildTables()
		if cfg.RandomizeInit && cfg.WarmStartFrac > 0 {
			mc.warmStart()
		}
	}
	if cfg.TrackContents {
		mc.contents = newContentStore(mc.unit)
	}
	return mc, nil
}

// deriveUnit builds the OTP unit for the current key epoch: the master key
// is mixed with the epoch so every re-key yields an independent key set.
func (mc *MC) deriveUnit() *otp.Unit {
	master := mc.cfg.KeyMaster
	for b := 0; b < 8; b++ {
		master[8+b] ^= byte(mc.keyEpoch >> (8 * uint(b)))
	}
	keyLen := 16
	if mc.cfg.AES256 {
		keyLen = 32
	}
	return otp.MustNewUnit(otp.DeriveKeys(master, keyLen))
}

// newCounterCache builds a cold counter cache from the configuration.
func (mc *MC) newCounterCache() *cache.Cache {
	return cache.New(cache.Config{
		SizeBytes: mc.cfg.CounterCacheBytes,
		Ways:      mc.cfg.CounterCacheWays,
		LineBytes: counter.BlockBytes,
	})
}

// buildTables (re)builds cold memoization tables seeded with the low
// counter range, discarding any previous contents.
func (mc *MC) buildTables() {
	fill := func(v uint64) otp.CtrResult { return mc.unit.CounterOnly(v) }
	mc.l0Table = core.MustNewTable(mc.cfg.L0Table, fill, func() uint64 { return mc.store.ObservedMax() })
	mc.l1Table = core.MustNewTable(mc.cfg.L1Table, fill, func() uint64 { return mc.observedTreeMax[1] })
	// Re-keys and power losses rebuild the tables; keep any attached
	// tracer flowing across the rebuild.
	mc.l0Table.SetTracer(mc.trace, 0)
	mc.l1Table.SetTracer(mc.trace, 1)
}

// warmStart rebases most counter groups onto a set of hot counter values
// and seeds the memoization tables with exactly those values — the
// converged steady state the self-reinforcing update drives a long-running
// system toward (§IV-B). The unsnapped remainder keeps the read-triggered
// update, watchpoint insertion, and shadow machinery exercised.
func (mc *MC) warmStart() {
	r := rng.New(mc.cfg.InitSeed ^ 0x57a2757a27)
	opts := counter.DefaultRandomize()
	span := opts.BaseHi - opts.BaseLo
	// The steady state of the self-reinforcing update is a contiguous
	// "ladder" of memoized windows (Figures 6/7: counters climb through
	// consecutive memoized values, and new groups extend the ladder just
	// above the hot range). Seed the table as one contiguous run of
	// Groups×GroupSize values and snap counters into its lower windows so
	// writes have headroom to climb.
	ladder := func(lo, width uint64, groups, groupSize int) []uint64 {
		run := uint64(groups * groupSize)
		top := lo + width
		if top < lo+run {
			top = lo + run
		}
		start := lo
		if top-run > lo {
			start = lo + r.Uint64n(top-run-lo)
		}
		out := make([]uint64, groups)
		for i := range out {
			out[i] = start + uint64(i*groupSize)
		}
		return out
	}
	dataBases := ladder(opts.BaseLo, span, mc.cfg.L0Table.Groups, mc.cfg.L0Table.GroupSize)
	// Snap into the lower half of the ladder so stepped writes stay
	// covered for many writebacks before reaching the top.
	mc.store.WarmSnap(r, dataBases[:len(dataBases)/2+1], mc.cfg.WarmStartFrac)
	mc.l0Table.Seed(dataBases)
	if mc.store.Levels() >= 1 {
		// Mirror Randomize's tree value range (base/8).
		l1Bases := ladder(opts.BaseLo/8, span/8+1, mc.cfg.L1Table.Groups, mc.cfg.L1Table.GroupSize)
		mc.store.WarmSnapTree(r, 1, l1Bases[:len(l1Bases)/2+1], mc.cfg.WarmStartFrac)
		mc.l1Table.Seed(l1Bases)
		// Refresh every per-level max register, not just level 1. Today
		// WarmSnapTree only rewrites level-1 counters, so rescanning level
		// 1 alone would be sufficient — but the observed-max registers are
		// the §IV-D2 OSM analogs bounding where a new memoized group may
		// start, and an under-reading register would let the table chase
		// counter values the system never reached. Rescanning all levels
		// keeps the invariant "observedTreeMax[l] == max stored counter at
		// level l" structural rather than incidental (regression-tested by
		// TestObservedTreeMaxMatchesStore).
		mc.rescanTreeMax()
	}
}

// rescanTreeMax recomputes every per-level observed-max register from the
// stored tree counters — the tree analog of the data-side Observed System
// Max register (§IV-D2): each register must upper-bound every counter at
// its level so memoized-group insertion never outruns the system state.
// Called after bulk counter rewrites (randomized init, warm start); the
// incremental update paths in bumpTreeCounter/relevelTree maintain the
// registers access-by-access.
func (mc *MC) rescanTreeMax() {
	for l := 1; l <= mc.store.Levels(); l++ {
		var max uint64
		for c := 0; c < mc.treeChildren(l); c++ {
			if v := mc.store.TreeCounter(l, c); v > max {
				max = v
			}
		}
		mc.observedTreeMax[l] = max
	}
}

// treeChildren returns the number of child counters stored at level l.
func (mc *MC) treeChildren(l int) int {
	if l == 1 {
		return mc.store.NumL0Blocks()
	}
	// Children of level l are the level-(l-1) nodes.
	n := mc.store.NumL0Blocks()
	for i := 1; i < l; i++ {
		n = (n + mc.store.Scheme().TreeArity() - 1) / mc.store.Scheme().TreeArity()
	}
	return n
}

// Config returns the controller configuration.
func (mc *MC) Config() Config { return mc.cfg }

// Store exposes the counter ground truth (coverage scans, tests).
func (mc *MC) Store() *counter.Store { return mc.store }

// CounterCache exposes the MC counter cache (tests, stats).
func (mc *MC) CounterCache() *cache.Cache { return mc.ctrCache }

// L0Table returns the L0 memoization table (nil unless RMCC mode).
func (mc *MC) L0Table() *core.Table { return mc.l0Table }

// L1Table returns the L1 memoization table (nil unless RMCC mode).
func (mc *MC) L1Table() *core.Table { return mc.l1Table }

// Unit exposes the OTP unit (examples, tests).
func (mc *MC) Unit() *otp.Unit { return mc.unit }

// KeyEpoch returns the current key generation: 0 at boot, incremented by
// every whole-memory re-key. The checker uses it to tell a legitimate
// post-reboot counter reset from a rollback attack.
func (mc *MC) KeyEpoch() uint64 { return mc.keyEpoch }

// OnEpochAccess advances the memoization tables' epoch clocks by one
// memory access. The simulator calls it once per LLC-level access.
func (mc *MC) OnEpochAccess() {
	if mc.l0Table != nil {
		mc.l0Table.OnAccess()
	}
	if mc.l1Table != nil {
		mc.l1Table.OnAccess()
	}
}
