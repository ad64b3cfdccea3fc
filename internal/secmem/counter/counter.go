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
// Integrity-tree nodes are split-counter blocks too: each covers Coverage()
// children with 7-bit minors above a shared major (SGX nodes hold eight
// full counters).
//
// The package is the functional ground truth: every data block's true
// counter value, every tree node's counter values, encodability checks, and
// relevel (overflow) execution. Policy — what value a counter moves to on a
// write — belongs to the engine and the RMCC core, not here.
package counter

import (
	"fmt"
	"slices"

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
//	[treeBase[0], ...)        L0 counter blocks, one per Coverage() data blocks
//	[treeBase[l], ...)        tree nodes for level l >= 1
//
// L0 counter blocks and tree nodes are the same split-counter structure,
// one shared major counter plus a minor per child, so every counter level
// is one level value and every metadata block is a node: lv[0] holds the
// data counters grouped by L0 counter block (the level-0 nodes), and lv[l]
// (l >= 1) holds tree level l's counters grouped by node. Counter c of
// lv[1] protects L0 counter block c; counter c of lv[l] protects level-(l-1)
// node c. Every group, at every level, covers Coverage() children. The root
// level's counters live on-chip and need no protection. The levels differ
// only in which spreads fit (fits). Each level has its own observed-max
// register, which every write to the level raises.
type Store struct {
	scheme   Scheme
	shift    uint     // log2(Coverage()): counter index -> node index
	lv       []level  // lv[0] data counters, lv[l] tree level l
	treeBase []uint64 // base address of each level's nodes
	observed []uint64 // per level: largest counter it has held (§IV-D2)
}

// level holds one counter level in its encoded form, as the hardware
// holds it: groups[j].base is group j's smallest value, and each counter
// keeps an 8-bit offset above its group's base. Each group also keeps its
// largest offset and how many of its counters sit at the base, so reading
// a counter, checking a group's encodability, and updating a counter take
// O(1); only an update that moves a group's last counter off the base
// scans the group's offsets, to lift the base to the new minimum.
//
// An offset is two nibbles. lo holds every counter's low four bits, two
// counters per byte; a group whose largest offset exceeds nibMax holds a
// slot of high nibbles from hiSlots, and gives it back once its largest
// offset fits the low nibbles again. The memoization-aware update keeps
// data groups within a few values of their base, so a data counter costs
// half a byte; SC-64 and tree groups, which spread wider, cost at most a
// byte. A group whose spread no 8-bit offset holds (only corruption and
// DecodeState make one) is wide: its values live in a full-width slot from
// wideSlots until a relevel or re-key encodes it again. SGX keeps every
// counter in full, one 56-bit slot per counter as its hardware does, and
// has no groups.
type level struct {
	n         int          // counters
	shift     uint         // log2 of counters per group
	groups    []group      // per group (nil for SGX)
	lo        []uint8      // per counter low offset nibble, two per byte
	hiSlots   slab[uint8]  // high offset nibbles of groups past nibMax
	wideSlots slab[uint64] // full-width values of wide groups
	full      []uint64     // SGX: per counter value
}

// group is one split-counter group's encoded summary.
type group struct {
	base   uint64 // smallest value in the group
	slot   uint32 // its hiSlots (or, when wide, wideSlots) handle; 0 for none
	maxOff uint8  // largest offset above base
	atBase uint8  // counters at offset 0
	wide   bool   // values held in a wide slot instead
}

// nibMax is the largest offset the low nibbles alone hold: an encoded
// group holds a high-nibble slot exactly while its maxOff exceeds it.
const nibMax = 0xf

// slab hands out fixed-size slots of one backing array and reuses the
// slots it gets back. A handle is one more than the slot's index, so a
// group's zero handle means it holds none.
type slab[T uint8 | uint64] struct {
	size int // elements per slot
	buf  []T
	free []uint32 // released handles
}

// take returns the handle of a zeroed slot.
func (s *slab[T]) take() uint32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		clear(s.at(h))
		return h
	}
	s.buf = append(s.buf, make([]T, s.size)...)
	return uint32(len(s.buf) / s.size)
}

// at returns slot h.
func (s *slab[T]) at(h uint32) []T { return s.buf[int(h-1)*s.size : int(h)*s.size] }

func (s *slab[T]) release(h uint32) { s.free = append(s.free, h) }

// reset frees every slot.
func (s *slab[T]) reset() { *s = slab[T]{size: s.size} }

// trim drops the backing array's spare capacity, after a bulk build.
func (s *slab[T]) trim() {
	if cap(s.buf) > len(s.buf) {
		s.buf = append([]T(nil), s.buf...)
	}
}

// NewStore builds counter state for dataBytes of protected memory. The tree
// is built until a level has at most Coverage() entries (that level's
// counters are the on-chip root). It panics if dataBytes is not
// block-aligned.
func NewStore(scheme Scheme, dataBytes uint64) *Store {
	if dataBytes == 0 || dataBytes%BlockBytes != 0 {
		panic(fmt.Sprintf("counter: dataBytes %d not a positive multiple of %d", dataBytes, BlockBytes))
	}
	s := &Store{scheme: scheme}
	for 1<<s.shift < scheme.Coverage() {
		s.shift++
	}
	// Level l >= 1 has one counter per level-(l-1) node: per L0 counter
	// block for level 1, per tree node above. Each level's nodes follow the
	// level below's, starting with the L0 counter blocks after the data.
	s.lv = []level{s.newLevel(int(dataBytes / BlockBytes))}
	s.treeBase = []uint64{dataBytes}
	for children := s.lv[0].numGroups(); children > 1; {
		top := len(s.lv) - 1
		s.treeBase = append(s.treeBase, s.treeBase[top]+uint64(children)*BlockBytes)
		s.lv = append(s.lv, s.newLevel(children))
		children = s.lv[top+1].numGroups()
	}
	s.observed = make([]uint64, len(s.lv))
	s.ResetCounters()
	return s
}

func (s *Store) newLevel(n int) level {
	lv := level{n: n, shift: s.shift}
	if s.scheme == SGX {
		lv.full = make([]uint64, n)
	} else {
		lv.groups = make([]group, lv.numGroups())
		lv.lo = make([]uint8, (n+1)/2)
		lv.hiSlots.size = 1 << s.shift / 2
		lv.wideSlots.size = 1 << s.shift
	}
	return lv
}

// Scheme returns the counter organization.
func (s *Store) Scheme() Scheme { return s.scheme }

// NumDataBlocks returns the number of protected data blocks.
func (s *Store) NumDataBlocks() int { return s.lv[0].n }

// NumL0Blocks returns the number of L0 counter blocks.
func (s *Store) NumL0Blocks() int { return s.lv[0].numGroups() }

// Levels returns the number of tree levels above L0 (root excluded from
// fetch traffic: its counters are on-chip).
func (s *Store) Levels() int { return len(s.lv) - 1 }

// Coverage returns data blocks per L0 counter block, which is also the
// number of children per tree node.
func (s *Store) Coverage() int { return 1 << s.shift }

// ObservedMax returns level l's Observed-System-Max register (§IV-D2):
// the largest value any level-l counter has held since the last re-key.
// Level 0's bounds the L0 memoization table, level 1's the L1 table.
func (s *Store) ObservedMax(l int) uint64 { return s.observed[l] }

// observe raises level l's observed-max register to v.
func (s *Store) observe(l int, v uint64) { s.observed[l] = max(s.observed[l], v) }

// --- Address mapping ---

// DataBlockIndex converts a data byte address to its block index.
func (s *Store) DataBlockIndex(addr uint64) int { return int(addr / BlockBytes) }

// DataBlockAddr returns the byte address of data block i.
func (s *Store) DataBlockAddr(i int) uint64 { return uint64(i) * BlockBytes }

// NodeIndex returns the node holding counter i of any level: data block
// i's L0 counter block at level 0, the level-l node over child i above.
func (s *Store) NodeIndex(i int) int { return i >> s.shift }

// NodeAddr returns the byte address of node k at level l: an L0 counter
// block for l == 0, a tree node above. The level above the last stored
// level is the on-chip root; callers must not ask for its address.
func (s *Store) NodeAddr(l, k int) uint64 {
	return s.treeBase[l] + uint64(k)*BlockBytes
}

// ClassifyAddr resolves a metadata byte address back to its node: level 0
// with the L0 counter-block index, or level >= 1 with the tree-node index.
// ok is false for data addresses and addresses beyond the metadata region.
func (s *Store) ClassifyAddr(addr uint64) (level, idx int, ok bool) {
	for l, base := range s.treeBase {
		if addr >= base && addr < base+uint64(s.lv[l].numGroups())*BlockBytes {
			return l, int((addr - base) / BlockBytes), true
		}
	}
	return 0, 0, false
}

// TreeLevelLen returns the number of child counters stored at level l.
func (s *Store) TreeLevelLen(l int) int { return s.lv[l].n }

// --- One counter level ---

func (lv *level) numGroups() int { return (lv.n + 1<<lv.shift - 1) >> lv.shift }

// groupRange returns the [start, end) counters of group j.
func (lv *level) groupRange(j int) (start, end int) {
	start = j << lv.shift
	return start, min(start+1<<lv.shift, lv.n)
}

// wide reports whether group j's values are held in full: SGX, or a wide
// group.
func (lv *level) wide(j int) bool { return lv.groups == nil || lv.groups[j].wide }

// nib returns nibble k of b, the low half of byte k/2 for even k.
func nib(b []uint8, k int) uint64 { return uint64(b[k>>1]>>(uint(k&1)<<2)) & nibMax }

// setNib sets nibble k of b to v's low four bits.
func setNib(b []uint8, k int, v uint64) {
	s := uint(k&1) << 2
	b[k>>1] = b[k>>1]&^(nibMax<<s) | uint8(v&nibMax)<<s
}

// offsets is an encoded group's n offsets, fetched once for a loop over
// the group: its low nibbles, and its high-nibble slot (nil while it holds
// none, every offset then being at most nibMax).
type offsets struct {
	lo, hi []uint8
	n      int
}

// at returns offset k.
func (o offsets) at(k int) uint64 {
	v := nib(o.lo, k)
	if o.hi != nil {
		v |= nib(o.hi, k) << 4
	}
	return v
}

// put sets offset k to v's low eight bits (four, without a slot).
func (o offsets) put(k int, v uint64) {
	setNib(o.lo, k, v)
	if o.hi != nil {
		setNib(o.hi, k, v>>4)
	}
}

// offsets returns encoded group j's offsets.
func (lv *level) offsets(j int) offsets {
	start, end := lv.groupRange(j)
	o := offsets{lo: lv.lo[start>>1 : (end+1)>>1], n: end - start}
	if h := lv.groups[j].slot; h != 0 {
		o.hi = lv.hiSlots.at(h)
	}
	return o
}

// inSlot returns where counter i sits in its group's slot h: the index of
// its high nibble in hiSlots.buf, or of its value in wideSlots.buf.
func (lv *level) inSlot(h uint32, i int) int { return int(h-1)<<lv.shift | i&(1<<lv.shift-1) }

// off returns counter i's offset in its encoded group g.
func (lv *level) off(g *group, i int) uint64 {
	v := nib(lv.lo, i)
	if g.slot != 0 {
		v |= nib(lv.hiSlots.buf, lv.inSlot(g.slot, i)) << 4
	}
	return v
}

// drop gives back group g's slot, if it holds one.
func (lv *level) drop(g *group) {
	switch {
	case g.wide:
		lv.wideSlots.release(g.slot)
	case g.slot != 0:
		lv.hiSlots.release(g.slot)
	}
	g.slot, g.wide = 0, false
}

// get returns counter i's value.
func (lv *level) get(i int) uint64 {
	if lv.groups == nil {
		return lv.full[i]
	}
	g := &lv.groups[i>>lv.shift]
	if g.wide {
		return lv.wideSlots.buf[lv.inSlot(g.slot, i)]
	}
	return g.base + lv.off(g, i)
}

// values writes group j's values to buf and returns them.
func (lv *level) values(j int, buf []uint64) []uint64 {
	start, end := lv.groupRange(j)
	vals := buf[:end-start]
	switch {
	case lv.groups == nil:
		copy(vals, lv.full[start:end])
	case lv.groups[j].wide:
		copy(vals, lv.wideSlots.at(lv.groups[j].slot))
	default:
		o, base := lv.offsets(j), lv.groups[j].base
		for k := range vals {
			vals[k] = base + o.at(k)
		}
	}
	return vals
}

// groupMax returns the largest value in group j.
func (lv *level) groupMax(j int) uint64 {
	if !lv.wide(j) {
		g := &lv.groups[j]
		return g.base + uint64(g.maxOff)
	}
	_, hi, _ := lv.scan(j, -1, 0)
	return hi
}

// scan reads group j value by value, with counter i reading as v, and
// returns its minimum, its maximum and how many counters sit above the
// minimum. Only wide groups and non-increasing queries need it.
func (lv *level) scan(j, i int, v uint64) (lo, hi uint64, above int) {
	var buf [128]uint64
	vals := lv.values(j, buf[:])
	if i >= 0 {
		vals[i&(1<<lv.shift-1)] = v
	}
	lo = ^uint64(0)
	for _, x := range vals {
		lo, hi = min(lo, x), max(hi, x)
	}
	for _, x := range vals {
		if x > lo {
			above++
		}
	}
	return lo, hi, above
}

// raise previews encoded group j once counter i moves up to offset d above
// the group's current base: the offset the base lifts by (non-zero only
// when i was the group's last counter at the base), the group's largest
// offset, and how many counters then sit at the new base.
func (lv *level) raise(j, i int, d uint64) (lift, top uint64, atMin int) {
	g := &lv.groups[j]
	top = max(uint64(g.maxOff), d)
	if cur := lv.off(g, i); cur != 0 || g.atBase > 1 {
		atMin = int(g.atBase)
		if cur == 0 {
			atMin--
		}
		return 0, top, atMin
	}
	// Counter i was the last at the base: the new base is the smallest of
	// d and the other counters' offsets.
	lift, atMin = d, 1
	o, self := lv.offsets(j), i&(1<<lv.shift-1)
	for k := 0; k < o.n; k++ {
		if k == self {
			continue
		}
		switch v := o.at(k); {
		case v < lift:
			lift, atMin = v, 1
		case v == lift:
			atMin++
		}
	}
	return lift, top, atMin
}

// set moves counter i up to newVal, which the caller has checked encodes.
// The group takes a high-nibble slot when its largest offset passes nibMax
// and gives it back when a base lift brings it within nibMax again.
func (lv *level) set(i int, newVal uint64) {
	j := i >> lv.shift
	if lv.groups == nil {
		lv.full[i] = newVal
		return
	}
	g := &lv.groups[j]
	if g.wide {
		lv.wideSlots.buf[lv.inSlot(g.slot, i)] = newVal
		return
	}
	d := newVal - g.base
	lift, top, atMin := lv.raise(j, i, d)
	if top-lift > nibMax && g.slot == 0 {
		g.slot = lv.hiSlots.take()
	}
	if lift > 0 {
		o := lv.offsets(j)
		for b := 0; b < o.n; b++ {
			o.put(b, o.at(b)-lift) // counter i's wraps; it is set below
		}
		g.base += lift
	}
	setNib(lv.lo, i, d-lift)
	if g.slot != 0 {
		setNib(lv.hiSlots.buf, lv.inSlot(g.slot, i), (d-lift)>>4)
	}
	g.maxOff = uint8(top - lift)
	g.atBase = uint8(atMin)
	if g.maxOff <= nibMax && g.slot != 0 {
		lv.drop(g)
	}
}

// fill sets every counter of group j to v.
func (lv *level) fill(j int, v uint64) {
	start, end := lv.groupRange(j)
	if lv.groups == nil {
		for b := start; b < end; b++ {
			lv.full[b] = v
		}
		return
	}
	lv.drop(&lv.groups[j])
	clear(lv.lo[start>>1 : (end+1)>>1])
	lv.groups[j] = group{base: v, atBase: uint8(end - start)}
}

// pack stores vals as group j's values: encoded when every value fits an
// 8-bit offset above the group minimum, wide otherwise.
func (lv *level) pack(j int, vals []uint64) {
	start, _ := lv.groupRange(j)
	if lv.groups == nil {
		copy(lv.full[start:], vals)
		return
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	g := &lv.groups[j]
	lv.drop(g)
	switch {
	case hi-lo > 0xff:
		g.slot, g.wide = lv.wideSlots.take(), true
		copy(lv.wideSlots.at(g.slot), vals)
		return
	case hi-lo > nibMax:
		g.slot = lv.hiSlots.take()
	}
	g.base, g.maxOff, g.atBase = lo, uint8(hi-lo), 0
	o := lv.offsets(j)
	for k, v := range vals {
		o.put(k, v-lo)
		if v == lo {
			g.atBase++
		}
	}
}

// summarize rebuilds encoded group j's summary from offsets written above
// base, lifting the base to the group's smallest value, and gives back the
// group's slot if its largest offset then fits the low nibbles.
func (lv *level) summarize(j int, base uint64) {
	o := lv.offsets(j)
	lo, hi := o.at(0), o.at(0)
	for k := 1; k < o.n; k++ {
		v := o.at(k)
		lo, hi = min(lo, v), max(hi, v)
	}
	g := &lv.groups[j]
	g.base, g.maxOff, g.atBase = base+lo, uint8(hi-lo), 0
	for k := 0; k < o.n; k++ {
		v := o.at(k) - lo
		o.put(k, v)
		if v == 0 {
			g.atBase++
		}
	}
	if g.maxOff <= nibMax {
		lv.drop(g)
	}
}

// rebase moves group j onto base, keeping each counter's distance above
// the group minimum, and returns the group's new maximum.
func (lv *level) rebase(j int, base uint64) uint64 {
	if !lv.wide(j) {
		g := &lv.groups[j]
		g.base = base
		return base + uint64(g.maxOff)
	}
	var buf [128]uint64
	vals := lv.values(j, buf[:])
	lo, hi := slices.Min(vals), uint64(0)
	for k, v := range vals {
		vals[k] = base + (v - lo)
		hi = max(hi, vals[k])
	}
	lv.pack(j, vals)
	return hi
}

// corrupt overwrites counter i with v, bypassing every invariant.
func (lv *level) corrupt(i int, v uint64) {
	j := i >> lv.shift
	var buf [128]uint64
	vals := lv.values(j, buf[:])
	vals[i&(1<<lv.shift-1)] = v
	lv.pack(j, vals)
}

// reset zeroes every counter of the level and frees every slot.
func (lv *level) reset() {
	clear(lv.full)
	clear(lv.lo)
	lv.hiSlots.reset()
	lv.wideSlots.reset()
	for j := range lv.groups {
		start, end := lv.groupRange(j)
		lv.groups[j] = group{atBase: uint8(end - start)}
	}
}

// --- Counters, at every level (level 0: the data counters) ---

// Counter returns level-l counter i: data block i's counter at level 0,
// the counter protecting child i (an L0 counter block or a level-(l-1)
// node) at tree level l.
func (s *Store) Counter(l, i int) uint64 { return s.lv[l].get(i) }

// GroupMax returns the largest counter in group j of level l (level-l
// node j).
func (s *Store) GroupMax(l, j int) uint64 { return s.lv[l].groupMax(j) }

// fits reports whether a split-counter level-l group whose values span
// spread, with above counters over the shared base, encodes: 7-bit minors
// at tree levels, the scheme's formats for L0 counter blocks.
func (s *Store) fits(l int, spread uint64, above int) bool {
	switch {
	case l > 0:
		return spread <= treeMinorRange
	case s.scheme == SC64:
		return spread <= sc64MinorRange
	default:
		// Morphable: the uniform 128 x 3b format, else ZCC exceptions.
		return spread <= morphUniformRange ||
			spread <= morphZCCRange && above <= morphZCCMaxNonBase
	}
}

// CanEncode reports whether setting level-l counter i to newVal keeps its
// group encodable without an overflow: the scheme's formats at level 0,
// 7-bit minors at tree levels. SGX never overflows below the 56-bit
// ceiling.
func (s *Store) CanEncode(l, i int, newVal uint64) bool {
	if newVal > MaxCounter {
		return false
	}
	if s.scheme == SGX {
		return true
	}
	lv := &s.lv[l]
	j := i >> lv.shift
	if g := &lv.groups[j]; !g.wide && newVal > g.base+lv.off(g, i) {
		start, end := lv.groupRange(j)
		lift, top, atMin := lv.raise(j, i, newVal-g.base)
		return s.fits(l, top-lift, end-start-atMin)
	}
	lo, hi, above := lv.scan(j, i, newVal)
	return s.fits(l, hi-lo, above)
}

// Set moves level-l counter i to newVal and raises the level's
// observed-max register. Callers gate it on CanEncode. Panics on a
// non-increasing value (reusing or rewinding a counter is a security
// violation the simulator must never commit) and on a value that leaves
// the group unencodable (an overflow must relevel).
func (s *Store) Set(l, i int, newVal uint64) {
	lv := &s.lv[l]
	cur := lv.get(i)
	if newVal <= cur {
		panic(fmt.Sprintf("counter: non-increasing update of level-%d counter %d: %d -> %d", l, i, cur, newVal))
	}
	if !s.CanEncode(l, i, newVal) {
		panic(fmt.Sprintf("counter: update leaves level-%d counter %d's group unencodable: %d -> %d",
			l, i, cur, newVal))
	}
	lv.set(i, newVal)
	s.observe(l, newVal)
}

// Relevel executes an overflow of the level-l group holding counter i:
// every counter in the group takes target, which must exceed the group's
// current maximum, and the level's observed-max register rises to it. It
// returns the [start, end) range of the group's counters, whose blocks
// (data blocks at level 0, child nodes above) must be re-encrypted or
// re-MACed and written back.
func (s *Store) Relevel(l, i int, target uint64) (start, end int) {
	lv := &s.lv[l]
	j := i >> lv.shift
	if hi := lv.groupMax(j); target <= hi {
		panic(fmt.Sprintf("counter: relevel target %d not above level-%d group %d maximum %d", target, l, j, hi))
	}
	lv.fill(j, target)
	s.observe(l, target)
	return lv.groupRange(j)
}

// --- Fault injection and re-key ---

// Corrupt overwrites level-l counter i with an arbitrary value, bypassing
// every invariant (monotonicity, encodability, the observed-max registers).
// It models a physical attack or DRAM fault on the counter storage itself;
// the engine's MAC check and the checker's regression scan are expected to
// flag the damage. Never call it from policy code.
func (s *Store) Corrupt(l, i int, v uint64) { s.lv[l].corrupt(i, v) }

// ResetCounters zeroes every data and tree counter and every observed-max
// register: the whole-memory re-key ("reboot"). Under a fresh key the
// (key, counter) pad space restarts, so zero counters are safe again.
func (s *Store) ResetCounters() {
	for l := range s.lv {
		s.lv[l].reset()
	}
	clear(s.observed)
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

// LevelRange returns the range [lo, lo+n) that Randomize draws level l's
// group bases from: [BaseLo, BaseHi) for the data counters (at least one
// value), an eighth of it for tree counters.
func (o RandomizeOptions) LevelRange(l int) (lo, n uint64) {
	span := max(o.BaseHi-o.BaseLo, 1)
	if l > 0 {
		return o.BaseLo / 8, span/8 + 1
	}
	return o.BaseLo, span
}

// WarmSnap rebases a fraction of level l's groups onto the given base
// values, preserving each group's internal offsets, and raises the level's
// observed-max register to the largest value written. It models the
// steady state of a long-running RMCC system: the memoization-aware update
// has releveled most groups onto memoized counter values (see §IV-B;
// convergence itself is exercised by the organic-convergence experiment).
// Must be called after Randomize and before any accesses.
func (s *Store) WarmSnap(l int, r *rng.Source, bases []uint64, frac float64) {
	if len(bases) == 0 {
		return
	}
	lv := &s.lv[l]
	t := rng.Threshold(frac)
	for j := 0; j < lv.numGroups(); j++ {
		if r.Uint64()>>11 >= t { // r.Float64() >= frac
			continue
		}
		s.observe(l, lv.rebase(j, bases[r.Intn(len(bases))]))
	}
}

// Randomize initializes all data and tree counters per opts. The resulting
// state is always encodable (no immediate overflows). Each level's
// observed-max register is raised to the largest counter produced there.
func (s *Store) Randomize(r *rng.Source, opts RandomizeOptions) {
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
	spread := rng.Threshold(opts.SpreadFrac)
	for l := range s.lv {
		lv := &s.lv[l]
		lv.reset()
		// Bases are drawn from LevelRange(l) and nudges from [0, nudgeN);
		// only nudged counters are written into the cleared groups.
		baseLo, baseN := opts.LevelRange(l)
		nudgeN, limit := spreadRange+1, maxNudges
		if l > 0 {
			nudgeN, limit = treeMinorRange/4, int(^uint(0)>>1)
		}
		for j := 0; j < lv.numGroups(); j++ {
			base := baseLo + r.Uint64n(baseN)
			start, end := lv.groupRange(j)
			var top uint64 // largest nudge
			nudges := 0
			for b := start; b < end; b++ {
				var nudge uint64
				if nudges < limit && r.Uint64()>>11 < spread { // r.Float64() < SpreadFrac
					nudge = r.Uint64n(nudgeN)
					if nudge != 0 {
						nudges++
					}
				}
				top = max(top, nudge)
				switch {
				case lv.groups == nil:
					lv.full[b] = base + nudge
				case nudge > nibMax:
					// The group's slot is zeroed when taken, so only
					// nudges past nibMax write a high nibble.
					g := &lv.groups[j]
					if g.slot == 0 {
						g.slot = lv.hiSlots.take()
					}
					setNib(lv.hiSlots.buf, lv.inSlot(g.slot, b), nudge>>4)
					fallthrough
				case nudge != 0:
					setNib(lv.lo, b, nudge)
				}
			}
			s.observe(l, base+top)
			if lv.groups == nil {
				continue
			}
			g := &lv.groups[j]
			g.base, g.maxOff, g.atBase = base, uint8(top), uint8(end-start-nudges)
			if nudges == end-start {
				lv.summarize(j, base) // every counter was nudged: lift the base
			}
		}
		lv.hiSlots.trim()
	}
}
