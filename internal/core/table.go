// Package core implements the paper's contribution: Self-Reinforcing
// Memoization for Cryptography Calculations (RMCC).
//
// A Table memoizes the counter-only AES results of hot counter values so
// that when a missing counter arrives from memory, the memory controller
// can look the value up instead of running 10–14 serial AES rounds. The
// memoization-aware counter-update policy (NearestMemoized + the engine's
// write path) raises counters onto memoized values, self-reinforcing the
// table's coverage (paper §IV-B).
//
// Organization (paper Figure 9 and §IV-C):
//
//   - 16 live Memoized Counter Value Groups × 8 consecutive values
//     (128 entries, 32 B each: a 16 B decrypt result + a 16 B MAC result);
//   - 16 shadow (recently evicted) groups that keep use-frequency counters,
//     like shadow tags in cache-replacement work;
//   - an MRU cache of up to 16 individual values falling under evicted
//     groups (§IV-C4, the "+6 % hit rate" optimization of Figure 10);
//   - watchpoints above Max-counter-in-Table (X+1+8i for i=0..16 and
//     X+129+2^j for j=4..17) driving mid-epoch insertion of a new group
//     once ≥ 2 K reads per epoch exceed the table max (§IV-C3);
//   - a per-epoch bandwidth-overhead budget with carry-over (§IV-C1).
package core

import (
	"fmt"
	"sort"

	"rmcc/internal/crypto/otp"
	"rmcc/internal/obs"
	"rmcc/internal/rng"
)

// The paper's fixed side structures (§IV-C): recently evicted groups the
// table tracks, and memoized values it keeps under them. EnableShadow and
// EnableMRU switch them off for the ablation.
const (
	shadowGroups = 16
	mruSize      = 16
)

// Config parameterizes one memoization table.
type Config struct {
	Groups    int // live Memoized Counter Value Groups (16)
	GroupSize int // consecutive values per group (8; Figs 21-22 sweep 4/8/16)

	OverMaxThreshold uint64  // reads above table max per epoch that trigger insertion (2048)
	CoverageQuantile float64 // new group start must cover this fraction of epoch reads (0.98)

	EpochAccesses uint64  // memory accesses per epoch (1,000,000)
	BudgetFrac    float64 // traffic-overhead budget per epoch (0.01 = 1 %)

	// Ablation switches (all true in the paper's main configuration).
	EnableMRU        bool // §IV-C4 evicted-value MRU cache
	EnableShadow     bool // shadow-group frequency tracking
	EnableReadUpdate bool // §IV-C1 read-triggered counter updates

	// RandomizeInsertion hardens the insertion policy against the
	// memo-insert side channel (docs/SIDECHANNEL.md): instead of choosing
	// the new group's start as the smallest watchpoint covering
	// CoverageQuantile of the epoch's reads — a deterministic function of
	// the victim's counter height, and therefore of its write count — the
	// table draws uniformly from the linear watchpoint ladder (X+1+8i,
	// i = 0..16). The draw deliberately excludes the exponential tail:
	// those starts would almost always clamp to OSM+1, re-leaking the
	// system's maximum counter. Off by default (the paper's policy).
	RandomizeInsertion bool
	// InsertSeed seeds the hardened draw (only used when
	// RandomizeInsertion is set). Deterministic per seed.
	InsertSeed uint64
}

// DefaultConfig returns the paper's main configuration.
func DefaultConfig() Config {
	return Config{
		Groups:           16,
		GroupSize:        8,
		OverMaxThreshold: 2048,
		CoverageQuantile: 0.98,
		EpochAccesses:    1_000_000,
		BudgetFrac:       0.01,
		EnableMRU:        true,
		EnableShadow:     true,
		EnableReadUpdate: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Groups <= 0 || c.GroupSize <= 0:
		return fmt.Errorf("core: need positive Groups/GroupSize, got %d/%d", c.Groups, c.GroupSize)
	case !(c.CoverageQuantile > 0 && c.CoverageQuantile <= 1): // NaN fails too
		return fmt.Errorf("core: CoverageQuantile %v out of (0,1]", c.CoverageQuantile)
	case c.EpochAccesses == 0:
		return fmt.Errorf("core: EpochAccesses must be positive")
	case !(c.BudgetFrac >= 0):
		return fmt.Errorf("core: BudgetFrac %v negative or NaN", c.BudgetFrac)
	}
	return nil
}

// Entries returns the total number of memoized values (Groups × GroupSize).
func (c Config) Entries() int { return c.Groups * c.GroupSize }

type group struct {
	start    uint64
	useCount uint64
	valid    bool
	results  []otp.CtrResult // GroupSize counter-only AES result pairs
}

func (g *group) contains(v uint64, size int) bool {
	return g.valid && v >= g.start && v < g.start+uint64(size)
}

type shadowGroup struct {
	start    uint64
	useCount uint64
	valid    bool
}

type mruEntry struct {
	value  uint64
	result otp.CtrResult
}

// HitSource says which structure served a memoization hit (Figure 10's
// breakdown).
type HitSource int

// Hit sources.
const (
	MissSource HitSource = iota
	GroupSource
	MRUSource
)

// Stats aggregates table activity since construction.
type Stats struct {
	Lookups    uint64
	GroupHits  uint64
	MRUHits    uint64
	Misses     uint64
	Insertions uint64 // mid-epoch new-group insertions
	Epochs     uint64
	// BudgetSpent counts block transfers charged to the overhead budget;
	// BudgetDenied counts spend attempts refused for lack of budget.
	BudgetSpent  uint64
	BudgetDenied uint64
}

// Table is one RMCC memoization table (the MC keeps one for L0 counters and
// one for L1 counters). Not safe for concurrent use.
type Table struct {
	cfg    Config
	fill   func(uint64) otp.CtrResult // computes counter-only AES results
	sysMax func() uint64              // Observed-System-Max register provider

	groups []group
	shadow []shadowGroup
	mru    []mruEntry // front = most recent

	// maxLive caches MaxInTable; recomputeWatchpoints refreshes it after
	// every structural change to the live groups.
	maxLive uint64

	// Epoch state. watchpoints is strictly ascending; watchBelow[i] counts
	// the epoch's reads whose value falls below watchpoints[i] but not below
	// watchpoints[i-1], so the per-watchpoint totals the insertion policy
	// needs are the prefix sums of watchBelow.
	accessesInEpoch uint64
	readsInEpoch    uint64
	overMaxReads    uint64
	watchpoints     []uint64
	watchBelow      []uint64

	budget budget

	// insertRNG drives randomized group insertion (Config.RandomizeInsertion);
	// nil when the stock coverage-quantile policy is active.
	insertRNG *rng.Source

	stats Stats

	// poisoned records that Poison has corrupted an entry. Every other
	// path stores fill(value), so while it is false every entry Lookup can
	// serve equals a fresh fill.
	poisoned bool

	// trace receives lifecycle events (insertions, epoch rollovers, budget
	// activity) when attached via SetTracer; nil disables tracing. traceID
	// distinguishes the MC's tables in the event stream (0 = L0, 1 = L1).
	trace   *obs.Tracer
	traceID uint64
}

type budget struct {
	perEpoch  float64
	available float64
}

// NewTable builds a table. fill computes the counter-only AES results for a
// value (the slow computation being memoized); sysMax reads the
// Observed-System-Max register (§IV-D2) bounding new group starts. Initial
// groups seed values 0..Entries-1 so a freshly booted system memoizes the
// low counter range.
func NewTable(cfg Config, fill func(uint64) otp.CtrResult, sysMax func() uint64) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fill == nil {
		return nil, fmt.Errorf("core: nil fill function")
	}
	if sysMax == nil {
		sysMax = func() uint64 { return ^uint64(0) }
	}
	t := &Table{
		cfg:    cfg,
		fill:   fill,
		sysMax: sysMax,
		groups: make([]group, cfg.Groups),
		shadow: make([]shadowGroup, 0, shadowGroups),
		budget: budget{perEpoch: cfg.BudgetFrac * float64(cfg.EpochAccesses)},
	}
	t.budget.available = t.budget.perEpoch
	if cfg.RandomizeInsertion {
		t.insertRNG = rng.New(cfg.InsertSeed)
	}
	for i := range t.groups {
		t.installGroup(i, uint64(i*cfg.GroupSize))
	}
	t.recomputeWatchpoints()
	return t, nil
}

// MustNewTable is NewTable but panics on error.
func MustNewTable(cfg Config, fill func(uint64) otp.CtrResult, sysMax func() uint64) *Table {
	t, err := NewTable(cfg, fill, sysMax)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the table configuration.
func (t *Table) Config() Config { return t.cfg }

// Seed replaces the live groups with groups starting at the given values
// (at most Groups of them; remaining slots keep their current contents).
// It models a warm-started system whose table already tracks the hot
// counter-value range, and is also useful in tests.
func (t *Table) Seed(starts []uint64) {
	for i, s := range starts {
		if i >= len(t.groups) {
			break
		}
		t.installGroup(i, s)
	}
	t.recomputeWatchpoints()
}

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// SetTracer attaches tr (nil detaches) with the given table id; events the
// table emits carry id in their Addr field (0 = L0, 1 = L1 by engine
// convention).
func (t *Table) SetTracer(tr *obs.Tracer, id uint64) {
	t.trace = tr
	t.traceID = id
}

// installGroup memoizes GroupSize consecutive values starting at start into
// slot i, computing their counter-only AES results.
func (t *Table) installGroup(i int, start uint64) {
	g := &t.groups[i]
	g.start = start
	g.useCount = 0
	g.valid = true
	if g.results == nil {
		g.results = make([]otp.CtrResult, t.cfg.GroupSize)
	}
	for k := 0; k < t.cfg.GroupSize; k++ {
		g.results[k] = t.fill(start + uint64(k))
	}
}

// MaxInTable returns the largest memoized value across live groups
// (Max-counter-in-Table, Figure 9). The value is cached and refreshed by
// recomputeWatchpoints, so the per-read over-max check is O(1).
func (t *Table) MaxInTable() uint64 { return t.maxLive }

// Contains reports whether value is currently memoized in a live group.
func (t *Table) Contains(value uint64) bool {
	if value > t.maxLive {
		return false
	}
	for i := range t.groups {
		if t.groups[i].contains(value, t.cfg.GroupSize) {
			return true
		}
	}
	return false
}

// LiveValues returns all currently memoized values in ascending order
// (used by coverage scans for Figure 15).
func (t *Table) LiveValues() []uint64 {
	out := make([]uint64, 0, t.cfg.Entries())
	for i := range t.groups {
		if g := &t.groups[i]; g.valid {
			for k := 0; k < t.cfg.GroupSize; k++ {
				out = append(out, g.start+uint64(k))
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Poison corrupts the stored AES results for a live memoized value (fault
// injection: an SRAM upset or deliberate tamper in the memoization table).
// Until repaired, lookups of value serve a wrong pad — which the engine's
// functional verification must catch. It reports whether value was live,
// and if so marks the table Poisoned.
func (t *Table) Poison(value uint64) bool {
	for i := range t.groups {
		g := &t.groups[i]
		if g.contains(value, t.cfg.GroupSize) {
			r := &g.results[value-g.start]
			r.Enc.Lo ^= 0xbad0bad
			r.Mac.Hi ^= 0xbad0bad
			t.poisoned = true
			return true
		}
	}
	return false
}

// Poisoned reports whether Poison has corrupted an entry since the table
// was built or last restored by DecodeState (which recomputes every entry).
// It stays set after Repair: other poisoned entries may remain. While it is
// false, every result Lookup serves equals fill(value).
func (t *Table) Poisoned() bool { return t.poisoned }

// Repair recomputes the stored results for value wherever it is memoized
// (live group and MRU cache), healing a poisoned entry with a fresh AES
// computation — the fall-back-to-baseline-AES recovery path.
func (t *Table) Repair(value uint64) {
	for i := range t.groups {
		g := &t.groups[i]
		if g.contains(value, t.cfg.GroupSize) {
			g.results[value-g.start] = t.fill(value)
		}
	}
	for i := range t.mru {
		if t.mru[i].value == value {
			t.mru[i].result = t.fill(value)
		}
	}
}

// Lookup consults the table for a counter value that just arrived from
// memory. isRead marks lookups on behalf of read requests: those drive the
// use-frequency counters and the over-max watchpoint statistics. On a miss
// under an evicted group, the value is promoted into the MRU cache so its
// next use hits (§IV-C4).
func (t *Table) Lookup(value uint64, isRead bool) (otp.CtrResult, HitSource) {
	t.stats.Lookups++
	if isRead {
		t.recordRead(value)
	}
	if value <= t.maxLive { // no live group can hold a value above the max
		for i := range t.groups {
			g := &t.groups[i]
			if g.contains(value, t.cfg.GroupSize) {
				if isRead {
					g.useCount++
				}
				t.stats.GroupHits++
				return g.results[value-g.start], GroupSource
			}
		}
	}
	// Shadow groups: keep counting uses of evicted groups, and serve the
	// MRU evicted-value cache.
	inShadow := false
	if t.cfg.EnableShadow {
		for i := range t.shadow {
			s := &t.shadow[i]
			if s.valid && value >= s.start && value < s.start+uint64(t.cfg.GroupSize) {
				if isRead {
					s.useCount++
				}
				inShadow = true
				break
			}
		}
	}
	if t.cfg.EnableMRU && inShadow {
		for i := range t.mru {
			if t.mru[i].value == value {
				e := t.mru[i]
				copy(t.mru[1:i+1], t.mru[:i])
				t.mru[0] = e
				t.stats.MRUHits++
				return e.result, MRUSource
			}
		}
		// First use since eviction: compute once (this lookup still pays
		// the AES latency) and memoize for next time.
		e := mruEntry{value: value, result: t.fill(value)}
		if len(t.mru) < mruSize {
			t.mru = append(t.mru, mruEntry{})
		}
		copy(t.mru[1:], t.mru[:len(t.mru)-1])
		t.mru[0] = e
	}
	t.stats.Misses++
	return otp.CtrResult{}, MissSource
}

// NearestMemoized returns the smallest live memoized value strictly greater
// than current — the memoization-aware counter-update target (§IV-B). MRU
// and shadow values are deliberately excluded: their composition changes
// with every access, so the update policy does not chase them (§IV-C4).
func (t *Table) NearestMemoized(current uint64) (uint64, bool) {
	best := uint64(0)
	found := false
	for i := range t.groups {
		g := &t.groups[i]
		if !g.valid {
			continue
		}
		end := g.start + uint64(t.cfg.GroupSize) - 1
		if end <= current {
			continue
		}
		cand := g.start
		if cand <= current {
			cand = current + 1
		}
		if !found || cand < best {
			best, found = cand, true
		}
	}
	return best, found
}

// recordRead updates the over-max count and watchpoint histogram. Every
// OverMaxThreshold reads above the table max triggers another group
// insertion, so the insertion rate is paced by how hard the workload's
// counter values outrun the table (§IV-C3).
func (t *Table) recordRead(value uint64) {
	t.readsInEpoch++
	if value > t.maxLive {
		t.overMaxReads++
		if t.overMaxReads >= t.cfg.OverMaxThreshold {
			t.overMaxReads = 0
			t.insertNewGroup()
		}
	}
	// value < w holds for exactly the ascending suffix of watchpoints that
	// starts at the first one above value; bucket that index instead of
	// touching the whole suffix.
	if i := sort.Search(len(t.watchpoints), func(i int) bool { return value < t.watchpoints[i] }); i < len(t.watchBelow) {
		t.watchBelow[i]++
	}
}

// recomputeWatchpoints refreshes the cached table max and rebuilds the
// monitored values above it: X+1+8i (i = 0..16) and X+129+2^j (j = 4..17),
// a strictly ascending sequence.
func (t *Table) recomputeWatchpoints() {
	var x uint64
	for i := range t.groups {
		if g := &t.groups[i]; g.valid {
			if end := g.start + uint64(t.cfg.GroupSize) - 1; end > x {
				x = end
			}
		}
	}
	t.maxLive = x
	t.watchpoints = t.watchpoints[:0]
	for i := 0; i <= 16; i++ {
		t.watchpoints = append(t.watchpoints, x+1+8*uint64(i))
	}
	for j := 4; j <= 17; j++ {
		t.watchpoints = append(t.watchpoints, x+129+(uint64(1)<<uint(j)))
	}
	t.watchBelow = make([]uint64, len(t.watchpoints))
}

// insertNewGroup replaces the least-frequently-used live group with a new
// group whose start is the smallest watchpoint covering CoverageQuantile of
// this epoch's reads, bounded by the Observed-System-Max register so the
// system's maximum counter value still only advances one step per write
// (§IV-C3, §IV-D2).
func (t *Table) insertNewGroup() {
	maxBefore := t.maxLive
	var start uint64
	if t.insertRNG != nil {
		// Hardened policy: a uniform draw over the linear watchpoint ladder
		// decouples the new group's start from the epoch read histogram
		// (docs/SIDECHANNEL.md). The exponential tail is excluded on
		// purpose — see Config.RandomizeInsertion.
		start = t.watchpoints[t.insertRNG.Uint64n(17)]
	} else {
		start = t.chooseNewStart()
	}
	if max := t.sysMax(); start > max+1 {
		start = max + 1
	}
	if t.Contains(start) {
		return // nothing to gain; already memoized
	}
	// Evict the LFU live group into the shadow list.
	victim := 0
	for i := range t.groups {
		if !t.groups[i].valid {
			victim = i
			break
		}
		if t.groups[i].useCount < t.groups[victim].useCount {
			victim = i
		}
	}
	t.evictToShadow(victim)
	t.installGroup(victim, start)
	t.stats.Insertions++
	t.trace.Emit(obs.EvMemoInsert, t.traceID, start, maxBefore)
	t.recomputeWatchpoints()
}

func (t *Table) chooseNewStart() uint64 {
	need := t.cfg.CoverageQuantile * float64(t.readsInEpoch)
	var below uint64 // prefix sum of watchBelow = reads under watchpoint i
	for i, w := range t.watchpoints {
		below += t.watchBelow[i]
		if float64(below) >= need {
			return w
		}
	}
	if n := len(t.watchpoints); n > 0 {
		return t.watchpoints[n-1]
	}
	return t.MaxInTable() + 1
}

func (t *Table) evictToShadow(i int) {
	if !t.cfg.EnableShadow || !t.groups[i].valid {
		return
	}
	s := shadowGroup{start: t.groups[i].start, useCount: t.groups[i].useCount, valid: true}
	if len(t.shadow) < shadowGroups {
		t.shadow = append(t.shadow, shadowGroup{})
	}
	copy(t.shadow[1:], t.shadow[:len(t.shadow)-1])
	t.shadow[0] = s
}

// OnAccess advances the epoch clock by one memory access and runs the
// end-of-epoch maintenance at the boundary. The engine calls it once per
// memory access it processes.
func (t *Table) OnAccess() {
	t.accessesInEpoch++
	if t.accessesInEpoch >= t.cfg.EpochAccesses {
		t.endEpoch()
	}
}

// endEpoch re-ranks the 32 tracked groups, keeping the 15 most frequently
// used plus the most recent insertion (§IV-C3), replenishes the budget with
// carry-over (§IV-C1), ages frequency counters, and resets epoch state.
func (t *Table) endEpoch() {
	t.stats.Epochs++
	t.rerank()
	// Carry leftover budget into the new epoch.
	t.budget.available += t.budget.perEpoch
	t.trace.Emit(obs.EvEpochRollover, t.traceID, t.stats.Epochs, uint64(t.budget.available))
	// Age use counts so stale popularity decays.
	for i := range t.groups {
		t.groups[i].useCount /= 2
	}
	for i := range t.shadow {
		t.shadow[i].useCount /= 2
	}
	t.accessesInEpoch = 0
	t.readsInEpoch = 0
	t.overMaxReads = 0
	for i := range t.watchBelow {
		t.watchBelow[i] = 0
	}
}

// rerank promotes shadow groups that out-ran live groups: the 16 live slots
// after re-ranking hold the most frequently used groups among the 32
// tracked.
func (t *Table) rerank() {
	if !t.cfg.EnableShadow || len(t.shadow) == 0 {
		return
	}
	type cand struct {
		start    uint64
		useCount uint64
		live     bool
		idx      int
	}
	cands := make([]cand, 0, len(t.groups)+len(t.shadow))
	for i := range t.groups {
		if t.groups[i].valid {
			cands = append(cands, cand{t.groups[i].start, t.groups[i].useCount, true, i})
		}
	}
	for i := range t.shadow {
		if t.shadow[i].valid {
			cands = append(cands, cand{t.shadow[i].start, t.shadow[i].useCount, false, i})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].useCount > cands[b].useCount })
	if len(cands) <= len(t.groups) {
		return
	}
	keep := cands[:len(t.groups)]
	// Demote live groups that fell out; promote shadow groups that rose in.
	keepLive := make(map[int]bool)
	var promote []cand
	for _, c := range keep {
		if c.live {
			keepLive[c.idx] = true
		} else {
			promote = append(promote, c)
		}
	}
	for _, p := range promote {
		// Find a live slot not kept.
		for i := range t.groups {
			if !keepLive[i] {
				t.evictToShadow(i)
				t.installGroup(i, p.start)
				// Preserve the promoted group's popularity.
				t.groups[i].useCount = p.useCount
				keepLive[i] = true
				// Remove the promoted entry from the shadow list.
				for s := range t.shadow {
					if t.shadow[s].valid && t.shadow[s].start == p.start {
						t.shadow[s].valid = false
						break
					}
				}
				break
			}
		}
	}
	t.recomputeWatchpoints()
}

// --- Budget (§IV-C1/C2) ---

// SpendBudget charges blocks of overhead traffic against the epoch budget.
// It returns false (charging nothing) when the remaining budget is
// insufficient; the caller must then fall back to the baseline policy.
func (t *Table) SpendBudget(blocks int) bool {
	if float64(blocks) > t.budget.available {
		t.stats.BudgetDenied++
		t.trace.Emit(obs.EvBudgetDenied, t.traceID, uint64(blocks), uint64(t.budget.available))
		return false
	}
	t.budget.available -= float64(blocks)
	t.stats.BudgetSpent += uint64(blocks)
	t.trace.Emit(obs.EvBudgetSpend, t.traceID, uint64(blocks), uint64(t.budget.available))
	return true
}
