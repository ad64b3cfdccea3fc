// Package counter models the write-counter organizations that secure-memory
// systems use, together with the integrity-tree counter state:
//
//   - SGX: eight full 56-bit counters per 64 B counter block (coverage 8).
//   - SC-64 [Yan et al., ISCA'06]: one shared 64-bit major counter plus 64
//     seven-bit minor counters per block (coverage 64). A write that cannot
//     be encoded overflows: every counter in the block is raised to the
//     maximum encoded value and all covered data blocks are re-encrypted.
//   - Morphable [Saileshwar et al., MICRO'18]: coverage 128. Our morphable
//     encoding keeps the scheme's essential behaviour with two formats the
//     block "morphs" between — a uniform format (128 × 3-bit minors) and a
//     zero-counter-compressed format (up to 30 ⟨index, 7-bit minor⟩
//     exceptions above the shared base). A write encodable under either
//     format is cheap; otherwise the block overflows like SC-64. (The
//     original paper uses a richer format menu; the coverage, decode
//     latency, and overflow dynamics — which are what the evaluation
//     exercises — are preserved. See DESIGN.md §3.)
//
// The package is the functional ground truth: every data block's true
// counter value, every tree node's counter values, encodability checks, and
// relevel (overflow) execution. Policy — what value a counter moves to on a
// write — belongs to the engine and the RMCC core, not here.
package counter

import (
	"fmt"

	"rmcc/internal/rng"
)

// Scheme selects a counter organization.
type Scheme int

// Counter organizations.
const (
	SGX Scheme = iota
	SC64
	Morphable
)

// String names the scheme as the paper's figures label it.
func (s Scheme) String() string {
	switch s {
	case SGX:
		return "SGX"
	case SC64:
		return "SC-64"
	case Morphable:
		return "Morphable"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme maps the scheme names "sgx", "sc64" and "morphable" (as
// flags and the rmccd wire spell them) to schemes.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "sgx":
		return SGX, nil
	case "sc64":
		return SC64, nil
	case "morphable":
		return Morphable, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

// Coverage returns the number of 64 B data blocks one counter block covers.
func (s Scheme) Coverage() int {
	switch s {
	case SGX:
		return 8
	case SC64:
		return 64
	case Morphable:
		return 128
	default:
		return 0
	}
}

// TreeArity returns the number of child blocks covered by one integrity
// tree node at levels 1 and above.
func (s Scheme) TreeArity() int {
	switch s {
	case SGX:
		return 8
	case SC64:
		return 64
	case Morphable:
		return 128
	default:
		return 0
	}
}

// Encoding limits for the split-counter formats.
const (
	sc64MinorRange     = 127 // 7-bit minors
	morphUniformRange  = 7   // 128 x 3-bit minors
	morphZCCRange      = 127 // 7-bit exception minors
	morphZCCMaxNonBase = 30  // exception slots in the ZCC format
	treeMinorRange     = 127 // 7-bit minors at tree levels
	// MaxCounter is the architectural 56-bit counter ceiling; reaching it
	// forces a whole-memory re-key (the paper's "reboot").
	MaxCounter = (uint64(1) << 56) - 1
)

// BlockBytes is the size of a memory block and of a counter block.
const BlockBytes = 64

// Store holds all counter state for one protected physical memory.
//
// Address map (block-granular, byte addresses):
//
//	[0, dataBytes)            data blocks
//	[ctrBase, ...)            L0 counter blocks, one per Coverage() data blocks
//	[treeBase[l], ...)        tree nodes for level l >= 1
//
// tree[1][j] is the counter protecting L0 counter block j; tree[l][k]
// protects level-(l-1) node k. The root level's counters live on-chip and
// need no protection.
//
// SC-64 and Morphable data counters are held in their encoded form, as
// their hardware holds them: groups[j].base is L0 group j's smallest
// value, and off[i] is data block i's 8-bit offset above its group's
// base. Each group also keeps its largest offset and how many of its
// blocks sit at the base, so reading a counter, checking a group's
// encodability, and updating a counter take O(1); only an update that
// moves a group's last block off the base scans the group's offsets, to
// lift the base to the new minimum. A group whose spread no 8-bit offset
// holds (only CorruptDataCounter and DecodeState make one) is wide: its
// values live in the full-width slots full[start:end], allocated on first
// use, until a relevel or re-key encodes it again. SGX keeps every data
// counter in full, one 56-bit slot per block as its hardware does.
type Store struct {
	scheme      Scheme
	nBlocks     int // data blocks
	coverage    int
	shift       uint // log2(coverage): data block index -> L0 group
	arity       int
	groups      []group    // per L0 group (nil for SGX)
	off         []uint8    // per data block offset above its group's base
	full        []uint64   // per data block full-width value (SGX, wide groups)
	tree        [][]uint64 // tree[l] for l >= 1; index = child block/node id
	ctrBase     uint64
	treeBase    []uint64 // base address per tree level (index 1..)
	observedMax uint64   // largest data counter ever set (§IV-D2 register)

	// Overflows counts relevel events per level (0 = data/L0 groups).
	Overflows []uint64
}

// group is one split-counter L0 group's encoded summary.
type group struct {
	base   uint64 // smallest value in the group
	maxOff uint8  // largest offset above base
	atBase uint8  // blocks at offset 0
	wide   bool   // values held in Store.full instead
}

// NewStore builds counter state for dataBytes of protected memory. The tree
// is built until a level has at most arity entries (that level's counters
// are the on-chip root). It panics if dataBytes is not block-aligned.
func NewStore(scheme Scheme, dataBytes uint64) *Store {
	if dataBytes == 0 || dataBytes%BlockBytes != 0 {
		panic(fmt.Sprintf("counter: dataBytes %d not a positive multiple of %d", dataBytes, BlockBytes))
	}
	n := int(dataBytes / BlockBytes)
	s := &Store{
		scheme:   scheme,
		nBlocks:  n,
		coverage: scheme.Coverage(),
		arity:    scheme.TreeArity(),
	}
	for 1<<s.shift < s.coverage {
		s.shift++
	}
	s.ctrBase = dataBytes
	// Build tree level sizes: level 1 has one counter per L0 counter
	// block; level l has one counter per level-(l-1) node.
	numL0 := (n + s.coverage - 1) / s.coverage
	if scheme == SGX {
		s.full = make([]uint64, n)
	} else {
		s.groups = make([]group, numL0)
		s.off = make([]uint8, n)
	}
	s.tree = append(s.tree, nil) // level 0 placeholder
	s.treeBase = append(s.treeBase, 0)
	childCount := numL0
	addr := s.ctrBase + uint64(numL0)*BlockBytes
	for childCount > 1 {
		s.tree = append(s.tree, make([]uint64, childCount))
		s.treeBase = append(s.treeBase, addr)
		nodes := (childCount + s.arity - 1) / s.arity
		addr += uint64(nodes) * BlockBytes
		if nodes <= 1 {
			break
		}
		childCount = nodes
	}
	s.Overflows = make([]uint64, len(s.tree)+1)
	s.ResetCounters()
	return s
}

// Scheme returns the counter organization.
func (s *Store) Scheme() Scheme { return s.scheme }

// NumDataBlocks returns the number of protected data blocks.
func (s *Store) NumDataBlocks() int { return s.nBlocks }

// NumL0Blocks returns the number of L0 counter blocks.
func (s *Store) NumL0Blocks() int {
	return (s.nBlocks + s.coverage - 1) / s.coverage
}

// Levels returns the number of tree levels above L0 (root excluded from
// fetch traffic: its counters are on-chip).
func (s *Store) Levels() int { return len(s.tree) - 1 }

// Coverage returns data blocks per L0 counter block.
func (s *Store) Coverage() int { return s.coverage }

// ObservedMax returns the Observed-System-Max register (§IV-D2): the
// largest counter value any data block has ever held.
func (s *Store) ObservedMax() uint64 { return s.observedMax }

// --- Address mapping ---

// DataBlockIndex converts a data byte address to its block index.
func (s *Store) DataBlockIndex(addr uint64) int { return int(addr / BlockBytes) }

// DataBlockAddr returns the byte address of data block i.
func (s *Store) DataBlockAddr(i int) uint64 { return uint64(i) * BlockBytes }

// L0Index returns the L0 counter block index covering data block i.
func (s *Store) L0Index(i int) int { return i >> s.shift }

// L0BlockAddr returns the byte address of L0 counter block j.
func (s *Store) L0BlockAddr(j int) uint64 { return s.ctrBase + uint64(j)*BlockBytes }

// TreeNodeIndex returns the level-l node holding the counter of child c,
// where c is an L0 block index for l==1 or a level-(l-1) node index
// otherwise.
func (s *Store) TreeNodeIndex(c int) int { return c / s.arity }

// TreeNodeAddr returns the byte address of node k at tree level l (l >= 1).
// The level above the last stored level is the on-chip root; callers must
// not ask for its address.
func (s *Store) TreeNodeAddr(l, k int) uint64 {
	return s.treeBase[l] + uint64(k)*BlockBytes
}

// ClassifyAddr resolves a metadata byte address back to its block: level 0
// with the L0 counter-block index, or level >= 1 with the tree-node index.
// ok is false for data addresses and addresses beyond the metadata region.
func (s *Store) ClassifyAddr(addr uint64) (level, idx int, ok bool) {
	if addr < s.ctrBase {
		return 0, 0, false
	}
	numL0 := s.NumL0Blocks()
	if addr < s.ctrBase+uint64(numL0)*BlockBytes {
		return 0, int((addr - s.ctrBase) / BlockBytes), true
	}
	for l := 1; l <= s.Levels(); l++ {
		nodes := (len(s.tree[l]) + s.arity - 1) / s.arity
		base := s.treeBase[l]
		if addr >= base && addr < base+uint64(nodes)*BlockBytes {
			return l, int((addr - base) / BlockBytes), true
		}
	}
	return 0, 0, false
}

// TreeLevelLen returns the number of child counters stored at level l.
func (s *Store) TreeLevelLen(l int) int { return len(s.tree[l]) }

// --- Data (L0) counters ---

// wide reports whether L0 group j's values live in the full-width slots.
func (s *Store) wide(j int) bool { return s.groups == nil || s.groups[j].wide }

// DataCounter returns the current counter value of data block i.
func (s *Store) DataCounter(i int) uint64 {
	j := i >> s.shift
	if s.wide(j) {
		return s.full[i]
	}
	return s.groups[j].base + uint64(s.off[i])
}

// GroupRange returns the [start, end) data block indices covered by L0
// counter block j.
func (s *Store) GroupRange(j int) (start, end int) {
	start = j * s.coverage
	end = start + s.coverage
	if end > s.nBlocks {
		end = s.nBlocks
	}
	return start, end
}

// GroupValues returns a snapshot of the counter values in L0 group j.
func (s *Store) GroupValues(j int) []uint64 {
	start, end := s.GroupRange(j)
	out := make([]uint64, end-start)
	for k := range out {
		out[k] = s.DataCounter(start + k)
	}
	return out
}

// GroupMax returns the largest counter value in L0 group j.
func (s *Store) GroupMax(j int) uint64 {
	if !s.wide(j) {
		g := &s.groups[j]
		return g.base + uint64(g.maxOff)
	}
	_, hi, _ := s.scan(j, -1, 0)
	return hi
}

// scan reads group j value by value, with block i reading as v, and
// returns its minimum, its maximum and how many blocks sit above the
// minimum. Only wide groups and non-increasing queries need it.
func (s *Store) scan(j, i int, v uint64) (lo, hi uint64, above int) {
	at := func(b int) uint64 {
		if b == i {
			return v
		}
		return s.DataCounter(b)
	}
	start, end := s.GroupRange(j)
	lo = ^uint64(0)
	for b := start; b < end; b++ {
		lo, hi = min(lo, at(b)), max(hi, at(b))
	}
	for b := start; b < end; b++ {
		if at(b) > lo {
			above++
		}
	}
	return lo, hi, above
}

// raise previews encoded group j once block i moves up to offset d above
// the group's current base: the offset the base lifts by (non-zero only
// when i was the group's last block at the base), the group's largest
// offset, and how many blocks then sit at the new base.
func (s *Store) raise(j, i int, d uint64) (lift, top uint64, atMin int) {
	g := &s.groups[j]
	top = max(uint64(g.maxOff), d)
	if s.off[i] != 0 || g.atBase > 1 {
		atMin = int(g.atBase)
		if s.off[i] == 0 {
			atMin--
		}
		return 0, top, atMin
	}
	// Block i was the last at the base: the new base is the smallest of
	// d and the other blocks' offsets.
	lift, atMin = d, 1
	start, end := s.GroupRange(j)
	for b := start; b < end; b++ {
		if b == i {
			continue
		}
		switch o := uint64(s.off[b]); {
		case o < lift:
			lift, atMin = o, 1
		case o == lift:
			atMin++
		}
	}
	return lift, top, atMin
}

// fits reports whether the scheme encodes a group whose values span spread
// with above blocks over the shared base.
func (s *Store) fits(spread uint64, above int) bool {
	switch s.scheme {
	case SGX:
		return true
	case SC64:
		return spread <= sc64MinorRange
	case Morphable:
		// Uniform 128 x 3b format, else ZCC exceptions.
		return spread <= morphUniformRange ||
			spread <= morphZCCRange && above <= morphZCCMaxNonBase
	default:
		return false
	}
}

// CanEncodeData reports whether setting data block i to newVal keeps its L0
// group encodable without an overflow.
func (s *Store) CanEncodeData(i int, newVal uint64) bool {
	if newVal > MaxCounter {
		return false
	}
	if s.scheme == SGX {
		return true
	}
	j := i >> s.shift
	if g := &s.groups[j]; !g.wide && newVal > g.base+uint64(s.off[i]) {
		start, end := s.GroupRange(j)
		lift, top, atMin := s.raise(j, i, newVal-g.base)
		return s.fits(top-lift, end-start-atMin)
	}
	lo, hi, above := s.scan(j, i, newVal)
	return s.fits(hi-lo, above)
}

// SetDataCounter sets data block i's counter to newVal. Callers gate it on
// CanEncodeData. Panics on a non-increasing value (reusing or rewinding a
// counter is a security violation the simulator must never commit) and on
// a value that leaves the group unencodable (an overflow must relevel).
func (s *Store) SetDataCounter(i int, newVal uint64) {
	cur := s.DataCounter(i)
	if newVal <= cur {
		panic(fmt.Sprintf("counter: non-increasing update for block %d: %d -> %d", i, cur, newVal))
	}
	if !s.CanEncodeData(i, newVal) {
		panic(fmt.Sprintf("counter: update leaves block %d's group unencodable: %d -> %d", i, cur, newVal))
	}
	if newVal > s.observedMax {
		s.observedMax = newVal
	}
	j := i >> s.shift
	if s.wide(j) {
		s.full[i] = newVal
		return
	}
	g := &s.groups[j]
	d := newVal - g.base
	lift, top, atMin := s.raise(j, i, d)
	if lift > 0 {
		start, end := s.GroupRange(j)
		for b := start; b < end; b++ {
			s.off[b] -= uint8(lift) // block i's wraps; it is set below
		}
		g.base += lift
	}
	s.off[i] = uint8(d - lift)
	g.maxOff = uint8(top - lift)
	g.atBase = uint8(atMin)
}

// RelevelData executes an L0 overflow for the group of data block i: every
// block in the group takes the value target, which must exceed the group's
// current maximum. It returns the data block indices that must be
// re-encrypted and written back (all blocks in the group).
func (s *Store) RelevelData(i int, target uint64) []int {
	j := i >> s.shift
	if hi := s.GroupMax(j); target <= hi {
		panic(fmt.Sprintf("counter: relevel target %d not above group %d maximum %d", target, j, hi))
	}
	start, end := s.GroupRange(j)
	blocks := make([]int, 0, end-start)
	for b := start; b < end; b++ {
		blocks = append(blocks, b)
	}
	s.level(j, target)
	if target > s.observedMax {
		s.observedMax = target
	}
	s.Overflows[0]++
	return blocks
}

// level sets every counter of L0 group j to v.
func (s *Store) level(j int, v uint64) {
	start, end := s.GroupRange(j)
	if s.groups == nil {
		for b := start; b < end; b++ {
			s.full[b] = v
		}
		return
	}
	clear(s.off[start:end])
	s.groups[j] = group{base: v, atBase: uint8(end - start)}
}

// pack stores vals as L0 group j's values: encoded when every value fits
// an 8-bit offset above the group minimum, wide otherwise.
func (s *Store) pack(j int, vals []uint64) {
	start, _ := s.GroupRange(j)
	if s.groups == nil {
		copy(s.full[start:], vals)
		return
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	if hi-lo > 0xff {
		if s.full == nil {
			s.full = make([]uint64, s.nBlocks)
		}
		copy(s.full[start:], vals)
		s.groups[j].wide = true
		return
	}
	for k, v := range vals {
		s.off[start+k] = uint8(v - lo)
	}
	s.summarize(j, lo)
}

// summarize rebuilds encoded group j's summary from offsets written above
// base, lifting the base to the group's smallest value.
func (s *Store) summarize(j int, base uint64) {
	start, end := s.GroupRange(j)
	offs := s.off[start:end]
	lo, hi := offs[0], offs[0]
	for _, o := range offs {
		lo, hi = min(lo, o), max(hi, o)
	}
	g := group{base: base + uint64(lo), maxOff: hi - lo}
	for k := range offs {
		offs[k] -= lo
		if offs[k] == 0 {
			g.atBase++
		}
	}
	s.groups[j] = g
}

// --- Tree counters ---

// TreeCounter returns the counter at level l protecting child c.
func (s *Store) TreeCounter(l, c int) uint64 { return s.tree[l][c] }

// treeGroupRange returns the [start, end) child indices stored in the same
// level-l node as child c.
func (s *Store) treeGroupRange(l, c int) (start, end int) {
	start = (c / s.arity) * s.arity
	end = start + s.arity
	if end > len(s.tree[l]) {
		end = len(s.tree[l])
	}
	return start, end
}

// CanEncodeTree reports whether bumping level-l child c to newVal keeps its
// node encodable (7-bit split minors at tree levels; SGX trees never
// overflow below the 56-bit ceiling).
func (s *Store) CanEncodeTree(l, c int, newVal uint64) bool {
	if newVal > MaxCounter {
		return false
	}
	if s.scheme == SGX {
		return true
	}
	start, end := s.treeGroupRange(l, c)
	var min, max uint64
	first := true
	for x := start; x < end; x++ {
		v := s.tree[l][x]
		if x == c {
			v = newVal
		}
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max-min <= treeMinorRange
}

// SetTreeCounter sets level-l child c's counter; it panics on decrease.
func (s *Store) SetTreeCounter(l, c int, newVal uint64) {
	if newVal <= s.tree[l][c] {
		panic(fmt.Sprintf("counter: non-increasing tree update l%d c%d: %d -> %d",
			l, c, s.tree[l][c], newVal))
	}
	s.tree[l][c] = newVal
}

// RelevelTree executes an overflow of the level-l node containing child c:
// all children take target. It returns the child indices whose blocks must
// be re-MACed and written back.
func (s *Store) RelevelTree(l, c int, target uint64) []int {
	start, end := s.treeGroupRange(l, c)
	for x := start; x < end; x++ {
		if target <= s.tree[l][x] {
			panic(fmt.Sprintf("counter: tree relevel target %d not above child %d value %d",
				target, x, s.tree[l][x]))
		}
	}
	children := make([]int, 0, end-start)
	for x := start; x < end; x++ {
		s.tree[l][x] = target
		children = append(children, x)
	}
	if l < len(s.Overflows) {
		s.Overflows[l]++
	}
	return children
}

// --- Fault injection and re-key ---

// CorruptDataCounter overwrites data block i's counter with an arbitrary
// value, bypassing every invariant (monotonicity, encodability, the
// observed-max register). It models a physical attack or DRAM fault on the
// counter storage itself; the engine's MAC check and the checker's
// regression scan are expected to flag the damage. Never call it from
// policy code.
func (s *Store) CorruptDataCounter(i int, v uint64) {
	j := i >> s.shift
	var buf [128]uint64
	vals := buf[:0]
	start, end := s.GroupRange(j)
	for b := start; b < end; b++ {
		vals = append(vals, s.DataCounter(b))
	}
	vals[i-start] = v
	s.pack(j, vals)
}

// CorruptTreeCounter overwrites the level-l counter protecting child c,
// bypassing every invariant — the tree analog of CorruptDataCounter.
func (s *Store) CorruptTreeCounter(l, c int, v uint64) { s.tree[l][c] = v }

// ResetCounters zeroes every data and tree counter and the observed-max
// register: the whole-memory re-key ("reboot"). Under a fresh key the
// (key, counter) pad space restarts, so zero counters are safe again. The
// cumulative Overflows tallies are preserved.
func (s *Store) ResetCounters() {
	for j := 0; j < s.NumL0Blocks(); j++ {
		s.level(j, 0)
	}
	for l := 1; l < len(s.tree); l++ {
		clear(s.tree[l])
	}
	s.observedMax = 0
}

// --- Initialization ---

// RandomizeOptions controls counter randomization (the paper's careful
// non-zero initialization, §V "Lifetime Characterization").
type RandomizeOptions struct {
	// BaseLo/BaseHi bound each group's shared base value.
	BaseLo, BaseHi uint64
	// SpreadFrac is the fraction of blocks per group nudged above the
	// base (kept within the scheme's encodable range).
	SpreadFrac float64
}

// DefaultRandomize mirrors the paper's initializer: an average of ~100 000
// writebacks per block under the baseline policy leaves each group at a
// large, group-specific base — every split-counter group that reaches such
// values has been releveled many times, which *synchronizes* its values —
// with only a small spread of post-relevel writes above the base.
func DefaultRandomize() RandomizeOptions {
	return RandomizeOptions{BaseLo: 50_000, BaseHi: 200_000, SpreadFrac: 0.06}
}

// WarmSnap rebases a fraction of L0 groups onto the given base values,
// preserving each group's internal offsets. It models the steady state of
// a long-running RMCC system: the memoization-aware update has releveled
// most groups onto memoized counter values (see §IV-B; convergence itself
// is exercised by the organic-convergence experiment). Must be called
// after Randomize and before any accesses.
func (s *Store) WarmSnap(r *rng.Source, bases []uint64, frac float64) {
	if len(bases) == 0 {
		return
	}
	for j := 0; j < s.NumL0Blocks(); j++ {
		if r.Float64() >= frac {
			continue
		}
		base := bases[r.Intn(len(bases))]
		if !s.wide(j) {
			g := &s.groups[j]
			g.base = base
			s.observedMax = max(s.observedMax, base+uint64(g.maxOff))
			continue
		}
		start, end := s.GroupRange(j)
		lo, _, _ := s.scan(j, -1, 0)
		for b := start; b < end; b++ {
			v := base + (s.full[b] - lo)
			s.full[b] = v
			s.observedMax = max(s.observedMax, v)
		}
	}
}

// WarmSnapTree rebases a fraction of level-l tree node groups onto the
// given bases, the tree analog of WarmSnap.
func (s *Store) WarmSnapTree(r *rng.Source, l int, bases []uint64, frac float64) {
	if len(bases) == 0 || l < 1 || l > s.Levels() {
		return
	}
	for start := 0; start < len(s.tree[l]); start += s.arity {
		if r.Float64() >= frac {
			continue
		}
		end := start + s.arity
		if end > len(s.tree[l]) {
			end = len(s.tree[l])
		}
		min := s.tree[l][start]
		for x := start; x < end; x++ {
			if s.tree[l][x] < min {
				min = s.tree[l][x]
			}
		}
		base := bases[r.Intn(len(bases))]
		for x := start; x < end; x++ {
			s.tree[l][x] = base + (s.tree[l][x] - min)
		}
	}
}

// Randomize initializes all data and tree counters per opts. The resulting
// state is always encodable (no immediate overflows). The observed-max
// register is updated to the largest value produced.
func (s *Store) Randomize(r *rng.Source, opts RandomizeOptions) {
	span := opts.BaseHi - opts.BaseLo
	if span == 0 {
		span = 1
	}
	// Leave generous headroom so the randomized state is a realistic
	// recently-releveled group, not one teetering on its encoding limit:
	// otherwise the first few writes of every run trigger an unphysical
	// storm of "healing" overflows.
	spreadRange := uint64(2)
	if s.scheme == SC64 {
		spreadRange = sc64MinorRange / 2
	}
	if s.scheme == SGX {
		spreadRange = 1024
	}
	// Bound the number of above-base values per Morphable group so the
	// randomized state always stays ZCC-encodable even after a +1 write.
	maxNudges := int(^uint(0) >> 1)
	if s.scheme == Morphable {
		maxNudges = 8
	}
	for j := 0; j < s.NumL0Blocks(); j++ {
		base := opts.BaseLo + r.Uint64n(span)
		start, end := s.GroupRange(j)
		var top uint64 // largest nudge
		nudges := 0
		for b := start; b < end; b++ {
			var nudge uint64
			if nudges < maxNudges && r.Float64() < opts.SpreadFrac {
				nudge = r.Uint64n(spreadRange + 1)
				if nudge != 0 {
					nudges++
				}
			}
			top = max(top, nudge)
			if s.groups == nil {
				s.full[b] = base + nudge
			} else {
				s.off[b] = uint8(nudge)
			}
		}
		s.observedMax = max(s.observedMax, base+top)
		if s.groups == nil {
			continue
		}
		s.groups[j] = group{base: base, maxOff: uint8(top), atBase: uint8(end - start - nudges)}
		if nudges == end-start {
			s.summarize(j, base) // every block was nudged: lift the base
		}
	}
	for l := 1; l <= s.Levels(); l++ {
		for start := 0; start < len(s.tree[l]); start += s.arity {
			end := start + s.arity
			if end > len(s.tree[l]) {
				end = len(s.tree[l])
			}
			base := opts.BaseLo / 8
			if span > 0 {
				base += r.Uint64n(span/8 + 1)
			}
			for x := start; x < end; x++ {
				v := base
				if r.Float64() < opts.SpreadFrac {
					v += r.Uint64n(treeMinorRange / 4)
				}
				s.tree[l][x] = v
			}
		}
	}
}
