package counter

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"rmcc/internal/rng"
	"rmcc/internal/snapshot"
)

// refStore is the literal model Store is checked against: every data and
// tree counter a full uint64, every encodability check a scan of the group
// or node, every observed-max register raised by each value written to its
// level, and every set-up and restore a write of plain values, so the two
// models' EncodeState bytes compare whole.
type refStore struct {
	scheme   Scheme
	coverage int // also the tree's arity
	vals     []uint64
	tree     [][]uint64
	observed []uint64 // per level, level 0 the data counters
	// relevels counts relevels per level, so a stream can show it reached
	// every level's overflow path. It is not state: snapshots omit it.
	relevels []uint64
}

func newRefStore(scheme Scheme, dataBytes uint64) *refStore {
	geo := NewStore(scheme, dataBytes)
	r := &refStore{
		scheme:   scheme,
		coverage: scheme.Coverage(),
		vals:     make([]uint64, geo.NumDataBlocks()),
		tree:     [][]uint64{nil},
		observed: make([]uint64, geo.Levels()+1),
		relevels: make([]uint64, geo.Levels()+1),
	}
	for l := 1; l <= geo.Levels(); l++ {
		r.tree = append(r.tree, make([]uint64, geo.TreeLevelLen(l)))
	}
	return r
}

// observe raises level l's observed-max register to v.
func (r *refStore) observe(l int, v uint64) { r.observed[l] = max(r.observed[l], v) }

func (r *refStore) numGroups() int { return (len(r.vals) + r.coverage - 1) / r.coverage }

func (r *refStore) groupRange(j int) (start, end int) {
	start = j * r.coverage
	return start, min(start+r.coverage, len(r.vals))
}

// groupMinMax scans group j, reading block i as newVal.
func (r *refStore) groupMinMax(j, i int, newVal uint64) (lo, hi uint64, nonBase int) {
	start, end := r.groupRange(j)
	at := func(b int) uint64 {
		if b == i {
			return newVal
		}
		return r.vals[b]
	}
	lo, hi = at(start), at(start)
	for b := start; b < end; b++ {
		lo, hi = min(lo, at(b)), max(hi, at(b))
	}
	for b := start; b < end; b++ {
		if at(b) > lo {
			nonBase++
		}
	}
	return lo, hi, nonBase
}

func (r *refStore) groupMax(j int) uint64 {
	_, hi, _ := r.groupMinMax(j, -1, 0)
	return hi
}

func (r *refStore) canEncodeData(i int, newVal uint64) bool {
	if newVal > MaxCounter {
		return false
	}
	lo, hi, nonBase := r.groupMinMax(i/r.coverage, i, newVal)
	switch r.scheme {
	case SGX:
		return true
	case SC64:
		return hi-lo <= sc64MinorRange
	default:
		return hi-lo <= morphUniformRange || hi-lo <= morphZCCRange && nonBase <= morphZCCMaxNonBase
	}
}

func (r *refStore) setDataCounter(i int, newVal uint64) {
	if newVal <= r.vals[i] {
		panic(fmt.Sprintf("reference: non-increasing update for block %d", i))
	}
	r.vals[i] = newVal
	r.observe(0, newVal)
}

func (r *refStore) relevelData(i int, target uint64) []int {
	start, end := r.groupRange(i / r.coverage)
	var blocks []int
	for b := start; b < end; b++ {
		if target <= r.vals[b] {
			panic(fmt.Sprintf("reference: relevel target %d not above block %d", target, b))
		}
		r.vals[b] = target
		blocks = append(blocks, b)
	}
	r.observe(0, target)
	r.relevels[0]++
	return blocks
}

// treeRange returns the [start, end) children of the level-l node holding
// child c.
func (r *refStore) treeRange(l, c int) (start, end int) {
	start = c / r.coverage * r.coverage
	return start, min(start+r.coverage, len(r.tree[l]))
}

func (r *refStore) treeNodeMax(l, c int) uint64 {
	start, end := r.treeRange(l, c)
	return slices.Max(r.tree[l][start:end])
}

func (r *refStore) canEncodeTree(l, c int, newVal uint64) bool {
	if newVal > MaxCounter {
		return false
	}
	if r.scheme == SGX {
		return true
	}
	start, end := r.treeRange(l, c)
	lo, hi := newVal, newVal
	for x := start; x < end; x++ {
		if x != c {
			lo, hi = min(lo, r.tree[l][x]), max(hi, r.tree[l][x])
		}
	}
	return hi-lo <= treeMinorRange
}

func (r *refStore) setTreeCounter(l, c int, newVal uint64) {
	if newVal <= r.tree[l][c] {
		panic(fmt.Sprintf("reference: non-increasing tree update l%d c%d", l, c))
	}
	r.tree[l][c] = newVal
	r.observe(l, newVal)
}

func (r *refStore) relevelTree(l, c int, target uint64) []int {
	start, end := r.treeRange(l, c)
	var children []int
	for x := start; x < end; x++ {
		if target <= r.tree[l][x] {
			panic(fmt.Sprintf("reference: tree relevel target %d not above child %d", target, x))
		}
		r.tree[l][x] = target
		children = append(children, x)
	}
	r.observe(l, target)
	r.relevels[l]++
	return children
}

func (r *refStore) warmSnapTree(src *rng.Source, l int, bases []uint64, frac float64) {
	for start := 0; start < len(r.tree[l]); start += r.coverage {
		if src.Float64() >= frac {
			continue
		}
		end := min(start+r.coverage, len(r.tree[l]))
		lo := slices.Min(r.tree[l][start:end])
		base := bases[src.Intn(len(bases))]
		for x := start; x < end; x++ {
			r.tree[l][x] = base + (r.tree[l][x] - lo)
			r.observe(l, r.tree[l][x])
		}
	}
}

func (r *refStore) resetCounters() {
	clear(r.vals)
	for _, lvl := range r.tree {
		clear(lvl)
	}
	clear(r.observed)
}

// randomize is Store.Randomize written over plain values, with the same
// random draws in the same order.
func (r *refStore) randomize(src *rng.Source, opts RandomizeOptions) {
	span := opts.BaseHi - opts.BaseLo
	if span == 0 {
		span = 1
	}
	spreadRange := uint64(2)
	if r.scheme == SC64 {
		spreadRange = sc64MinorRange / 2
	}
	if r.scheme == SGX {
		spreadRange = 1024
	}
	maxNudges := int(^uint(0) >> 1)
	if r.scheme == Morphable {
		maxNudges = 8
	}
	for j := 0; j < r.numGroups(); j++ {
		base := opts.BaseLo + src.Uint64n(span)
		start, end := r.groupRange(j)
		nudges := 0
		for b := start; b < end; b++ {
			v := base
			if nudges < maxNudges && src.Float64() < opts.SpreadFrac {
				v += src.Uint64n(spreadRange + 1)
				if v != base {
					nudges++
				}
			}
			r.vals[b] = v
			r.observe(0, v)
		}
	}
	for l := 1; l < len(r.tree); l++ {
		for start := 0; start < len(r.tree[l]); start += r.coverage {
			end := min(start+r.coverage, len(r.tree[l]))
			base := opts.BaseLo/8 + src.Uint64n(span/8+1)
			for x := start; x < end; x++ {
				v := base
				if src.Float64() < opts.SpreadFrac {
					v += src.Uint64n(treeMinorRange / 4)
				}
				r.tree[l][x] = v
				r.observe(l, v)
			}
		}
	}
}

func (r *refStore) warmSnap(src *rng.Source, bases []uint64, frac float64) {
	for j := 0; j < r.numGroups(); j++ {
		if src.Float64() >= frac {
			continue
		}
		lo, _, _ := r.groupMinMax(j, -1, 0)
		base := bases[src.Intn(len(bases))]
		start, end := r.groupRange(j)
		for b := start; b < end; b++ {
			r.vals[b] = base + (r.vals[b] - lo)
			r.observe(0, r.vals[b])
		}
	}
}

func (r *refStore) encodeState(e *snapshot.Enc) {
	e.U64s(r.vals)
	e.U64(uint64(len(r.tree) - 1))
	for _, lvl := range r.tree[1:] {
		e.U64s(lvl)
	}
	e.U64s(r.observed)
}

func (r *refStore) decodeState(d *snapshot.Dec) error {
	d.U64sInto(r.vals)
	if levels := d.U64(); levels != uint64(len(r.tree)-1) {
		return d.Failf("reference: %d tree levels", levels)
	}
	for _, lvl := range r.tree[1:] {
		d.U64sInto(lvl)
	}
	d.U64sInto(r.observed)
	return d.Finish()
}

// diffGeometries are the stores the differential streams run on; each
// ends in a partial L0 group (the second SC-64 one holds a single block)
// and a partial last node at every tree level. The first three keep small
// trees (SGX two levels, the others one); the last three store two or three
// tree levels, which Morphable reaches only above 16 384 blocks.
var diffGeometries = []struct {
	name   string
	scheme Scheme
	blocks int
}{
	{"SGX", SGX, 8*40 + 5},
	{"SC-64", SC64, 64*20 + 1},
	{"Morphable", Morphable, 128*12 + 37},
	{"SGX-3-levels", SGX, 8*131 + 5},
	{"SC-64-2-levels", SC64, 64*133 + 9},
	{"Morphable-2-levels", Morphable, 128*137 + 3},
}

// opSource yields the op stream's choices: a seeded RNG in the
// differential test, the fuzzer's bytes in FuzzStoreAgainstReference.
type opSource interface{ Uint64n(n uint64) uint64 }

// byteSource reads each choice from as many input bytes as its range
// needs; an exhausted input reads as zeros.
type byteSource struct{ b []byte }

func (s *byteSource) Uint64n(n uint64) uint64 {
	var v uint64
	for span := n - 1; span > 0 && len(s.b) > 0; span >>= 8 {
		v = v<<8 | uint64(s.b[0])
		s.b = s.b[1:]
	}
	return v % n
}

// differ drives Stores and the reference through one op stream and fails
// on the first divergence. A store restored from the reference's bytes
// may join mid-stream (join).
type differ struct {
	t      testing.TB
	src    opSource
	scheme Scheme
	bytes  uint64
	ref    *refStore
	stores []*Store
	op     int
	what   string
	// moves counts, per op kind, how the op's group changed form in the
	// first store (see groupForm), so a stream can show it crossed
	// between the storage forms in both directions at every level.
	moves map[move]int
}

// move is one op's effect on its group's storage form.
type move struct {
	level    int
	op       string
	from, to string
}

func newDiffer(t testing.TB, scheme Scheme, blocks int, src opSource) *differ {
	bytes := uint64(blocks) * BlockBytes
	return &differ{t: t, src: src, scheme: scheme, bytes: bytes,
		ref: newRefStore(scheme, bytes), stores: []*Store{NewStore(scheme, bytes)}, moves: map[move]int{}}
}

func (d *differ) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%v op %d %s: %s", d.scheme, d.op, d.what, fmt.Sprintf(format, args...))
}

// step applies one op to every model, then compares CanEncode's level-0
// verdicts on the op's block for raises of 1, 8 and 128. A quarter of the
// ops work on a tree counter instead (treeStep).
func (d *differ) step() {
	d.op++
	if d.src.Uint64n(4) == 0 {
		d.treeStep()
		return
	}
	i := d.block()
	j := i / d.ref.coverage
	cur := d.ref.vals[i]
	from := groupForm(d.stores[0], 0, j)
	var op string
	switch k := d.src.Uint64n(64); {
	case k < 26:
		op = "write"
		d.write(i, cur+1)
	case k < 28:
		// A sweep writes every block of the group once, so each of its
		// blocks at the base moves up.
		op = "sweep"
		start := j * d.ref.coverage
		for b := start; b < min(start+d.ref.coverage, len(d.ref.vals)); b++ {
			d.write(b, d.ref.vals[b]+1)
		}
	case k < 30:
		// A lift moves every block below base+m up to it, as updates onto
		// one memoized value do, so the group's base lifts by up to m.
		op = "lift"
		start := j * d.ref.coverage
		end := min(start+d.ref.coverage, len(d.ref.vals))
		to := slices.Min(d.ref.vals[start:end]) + 1 + d.src.Uint64n(40)
		for b := start; b < end; b++ {
			if d.ref.vals[b] < to {
				d.write(b, to)
			}
		}
	case k < 36:
		op = "jump"
		d.write(i, cur+1+d.src.Uint64n(140))
	case k < 40:
		// A read-triggered update raises the block onto the nearest
		// memoized value above it: here the next multiple of a stride.
		op = "read-update"
		stride := 8 + d.src.Uint64n(56)
		d.write(i, (cur/stride+1)*stride)
	case k < 46:
		// A memo-target relevel: onto a value above the group maximum.
		op = "relevel"
		d.relevel(i, d.ref.groupMax(j)+1+d.src.Uint64n(1000))
	case k < 52:
		op = "corrupt"
		d.corrupt(i, cur)
	case k < 56:
		op = "roundTrip"
		d.roundTrip()
	case k < 58:
		op = "rekey"
		d.rekey("ResetCounters")
	case k < 61:
		op = "randomize"
		d.randomize()
	default:
		op = "warmSnap"
		d.warmSnap()
	}
	d.moves[move{0, op, from, groupForm(d.stores[0], 0, j)}]++
	d.verdicts(i)
}

// groupForm names how store s holds level-l group j: "nibbles" (low
// nibbles alone), "slot" (with a high-nibble slot), "wide" or, for SGX,
// "full".
func groupForm(s *Store, l, j int) string {
	switch lv := &s.lv[l]; {
	case lv.groups == nil:
		return "full"
	case lv.groups[j].wide:
		return "wide"
	case lv.groups[j].slot != 0:
		return "slot"
	}
	return "nibbles"
}

// block picks the op's block: anywhere, or in the first or the (partial)
// last group, so streams drive single groups to their encoding limits.
func (d *differ) block() int {
	n := uint64(len(d.ref.vals))
	switch d.src.Uint64n(4) {
	case 0:
		return int(d.src.Uint64n(uint64(d.ref.coverage)) % n)
	case 1:
		last := uint64(d.ref.numGroups()-1) * uint64(d.ref.coverage)
		return int(last + d.src.Uint64n(n-last))
	default:
		return int(d.src.Uint64n(n))
	}
}

// treeStep applies one op to a tree counter, then compares CanEncode's
// verdicts on it: +1 and jump bumps, relevels onto the node maximum plus k,
// corruptions and a tree-level WarmSnap.
func (d *differ) treeStep() {
	l, c := d.child()
	cur := d.ref.tree[l][c]
	from := groupForm(d.stores[0], l, c/d.ref.coverage)
	var op string
	switch k := d.src.Uint64n(16); {
	case k < 7:
		op = "bump"
		d.bumpTree(l, c, cur+1)
	case k < 10:
		op = "jump"
		d.bumpTree(l, c, cur+1+d.src.Uint64n(140))
	case k < 12:
		op = "relevel"
		d.relevelTree(l, c, d.ref.treeNodeMax(l, c)+1+d.src.Uint64n(1000))
	case k < 14:
		op = "corrupt"
		d.corruptTree(l, c, cur)
	default:
		op = "warmSnap"
		d.warmSnapTree(l)
	}
	d.moves[move{l, op, from, groupForm(d.stores[0], l, c/d.ref.coverage)}]++
	d.treeVerdicts(l, c)
}

// child picks the op's tree level and child: anywhere on the level, or in
// its first or (partial) last node.
func (d *differ) child() (l, c int) {
	l = 1 + int(d.src.Uint64n(uint64(len(d.ref.tree)-1)))
	n := uint64(len(d.ref.tree[l]))
	switch d.src.Uint64n(4) {
	case 0:
		return l, int(d.src.Uint64n(uint64(d.ref.coverage)) % n)
	case 1:
		last := (n - 1) / uint64(d.ref.coverage) * uint64(d.ref.coverage)
		return l, int(last + d.src.Uint64n(n-last))
	default:
		return l, int(d.src.Uint64n(n))
	}
}

// rekey resets every model, as the engine's whole-memory re-key does.
func (d *differ) rekey(why string) {
	d.what = why
	d.ref.resetCounters()
	for _, s := range d.stores {
		s.ResetCounters()
	}
}

// bumpTree moves level-l child c to v the way the engine's tree update
// does: through Set when the node stays encodable, else by releveling the
// node to just above its maximum; a node at the 56-bit ceiling re-keys.
func (d *differ) bumpTree(l, c int, v uint64) {
	if d.ref.treeNodeMax(l, c) >= MaxCounter {
		d.rekey("re-key at a tree node's ceiling")
		return
	}
	d.what = fmt.Sprintf("bump l%d child %d -> %d", l, c, v)
	want := d.ref.canEncodeTree(l, c, v)
	for k, s := range d.stores {
		if got := s.CanEncode(l, c, v); got != want {
			d.fatalf("store %d CanEncode(%d, %d) %v, reference %v", k, l, c, got, want)
		}
	}
	if !want {
		d.relevelTree(l, c, max(d.ref.treeNodeMax(l, c)+1, v))
		return
	}
	d.ref.setTreeCounter(l, c, v)
	for _, s := range d.stores {
		s.Set(l, c, v)
	}
}

// relevelTree relevels the level-l node holding child c onto target; a
// node at the ceiling re-keys instead.
func (d *differ) relevelTree(l, c int, target uint64) {
	if d.ref.treeNodeMax(l, c) >= MaxCounter {
		d.rekey("re-key at a tree node's ceiling")
		return
	}
	d.what = fmt.Sprintf("relevel l%d child %d's node -> %d", l, c, target)
	want := d.ref.relevelTree(l, c, target)
	for k, s := range d.stores {
		if start, end := s.Relevel(l, c, target); !slices.Equal(span(start, end), want) {
			d.fatalf("store %d releveled children [%d, %d), reference %v", k, start, end, want)
		}
	}
}

// corruptTree writes a value no node encoding holds, the top of the
// uint64 range included, compares the damaged node, and then usually
// relevels it.
func (d *differ) corruptTree(l, c int, cur uint64) {
	v := [...]uint64{0, cur + 0x5eed, MaxCounter + 1, ^uint64(0), cur ^ (1 + d.src.Uint64n(255))}[d.src.Uint64n(5)]
	d.what = fmt.Sprintf("corrupt l%d child %d: %d -> %d", l, c, cur, v)
	d.ref.tree[l][c] = v
	for _, s := range d.stores {
		s.Corrupt(l, c, v)
	}
	d.treeVerdicts(l, c)
	if d.src.Uint64n(4) != 0 {
		d.relevelTree(l, c, d.ref.treeNodeMax(l, c)+1)
	}
}

func (d *differ) warmSnapTree(l int) {
	seed := d.src.Uint64n(1 << 32)
	bases := make([]uint64, 1+d.src.Uint64n(8))
	for k := range bases {
		bases[k] = d.src.Uint64n(1 << 24)
	}
	frac := float64(d.src.Uint64n(101)) / 100
	d.what = fmt.Sprintf("WarmSnap(l%d, seed %d, %v, %v)", l, seed, bases, frac)
	d.ref.warmSnapTree(rng.New(seed), l, bases, frac)
	for _, s := range d.stores {
		s.WarmSnap(l, rng.New(seed), bases, frac)
	}
}

// treeVerdicts compares level-l child c's value, its node's maximum, the
// level's observed-max register, and CanEncode's verdicts on the child for
// raises of 1, 8 and 128.
func (d *differ) treeVerdicts(l, c int) {
	cur := d.ref.tree[l][c]
	for k, s := range d.stores {
		if got := s.Counter(l, c); got != cur {
			d.fatalf("store %d l%d child %d = %d, reference %d", k, l, c, got, cur)
		}
		if got := s.ObservedMax(l); got != d.ref.observed[l] {
			d.fatalf("store %d ObservedMax(%d) %d, reference %d", k, l, got, d.ref.observed[l])
		}
		if got, want := s.GroupMax(l, s.NodeIndex(c)), d.ref.treeNodeMax(l, c); got != want {
			d.fatalf("store %d l%d node of child %d max %d, reference %d", k, l, c, got, want)
		}
		for _, up := range []uint64{1, 8, 128} {
			if got, want := s.CanEncode(l, c, cur+up), d.ref.canEncodeTree(l, c, cur+up); got != want {
				d.fatalf("store %d CanEncode(%d, %d, cur+%d) %v, reference %v", k, l, c, up, got, want)
			}
		}
	}
}

// write moves block i to v the way the engine does: through Set when the
// group stays encodable, else by releveling the group to just above its
// maximum; a group at the 56-bit ceiling re-keys.
func (d *differ) write(i int, v uint64) {
	j := i / d.ref.coverage
	if d.ref.groupMax(j) >= MaxCounter {
		d.rekey("re-key at the ceiling")
		return
	}
	d.what = fmt.Sprintf("write block %d -> %d", i, v)
	want := d.ref.canEncodeData(i, v)
	for k, s := range d.stores {
		if got := s.CanEncode(0, i, v); got != want {
			d.fatalf("store %d CanEncode(0, %d) %v, reference %v", k, i, got, want)
		}
	}
	if !want {
		d.relevel(i, max(d.ref.groupMax(j)+1, v))
		return
	}
	d.ref.setDataCounter(i, v)
	for _, s := range d.stores {
		s.Set(0, i, v)
	}
}

func (d *differ) relevel(i int, target uint64) {
	d.what = fmt.Sprintf("relevel block %d's group -> %d", i, target)
	want := d.ref.relevelData(i, target)
	for k, s := range d.stores {
		if start, end := s.Relevel(0, i, target); !slices.Equal(span(start, end), want) {
			d.fatalf("store %d releveled blocks [%d, %d), reference %v", k, start, end, want)
		}
	}
}

// corrupt writes a value no encoding holds (or, for the XOR, one that
// may), compares the damaged state, and then usually relevels the group.
func (d *differ) corrupt(i int, cur uint64) {
	v := [...]uint64{0, cur + 0x5eed, MaxCounter + 1, cur ^ (1 + d.src.Uint64n(255))}[d.src.Uint64n(4)]
	d.what = fmt.Sprintf("corrupt block %d: %d -> %d", i, cur, v)
	d.ref.vals[i] = v
	for _, s := range d.stores {
		s.Corrupt(0, i, v)
	}
	d.verdicts(i)
	j := i / d.ref.coverage
	if d.src.Uint64n(4) != 0 {
		d.relevel(i, d.ref.groupMax(j)+1)
	}
}

// roundTrip replaces every model with one decoded from its own
// EncodeState bytes, after checking those bytes against the reference's.
func (d *differ) roundTrip() {
	d.what = "EncodeState/DecodeState round trip"
	want := d.refBytes()
	for k, s := range d.stores {
		got := encodeStore(s)
		if !bytes.Equal(got, want) {
			d.fatalf("store %d EncodeState differs from the reference", k)
		}
		d.stores[k] = d.decode(got)
	}
	ref := newRefStore(d.scheme, d.bytes)
	if err := ref.decodeState(snapshot.NewDec(want)); err != nil {
		d.fatalf("reference DecodeState: %v", err)
	}
	ref.relevels = d.ref.relevels
	d.ref = ref
}

// join adds a store restored from the reference's bytes.
func (d *differ) join() {
	d.what = "join a store restored from the reference"
	d.stores = append(d.stores, d.decode(d.refBytes()))
	d.checkAll()
}

func (d *differ) decode(b []byte) *Store {
	s := NewStore(d.scheme, d.bytes)
	dec := snapshot.NewDec(b)
	if err := s.DecodeState(dec); err != nil {
		d.fatalf("DecodeState: %v", err)
	}
	if err := dec.Finish(); err != nil {
		d.fatalf("DecodeState: %v", err)
	}
	return s
}

func (d *differ) randomize() {
	seed := d.src.Uint64n(1 << 32)
	opts := DefaultRandomize()
	if d.src.Uint64n(2) == 0 {
		lo := d.src.Uint64n(1 << 20)
		opts = RandomizeOptions{BaseLo: lo, BaseHi: lo + d.src.Uint64n(1<<20),
			SpreadFrac: float64(d.src.Uint64n(101)) / 100}
	}
	d.what = fmt.Sprintf("Randomize(seed %d, %+v)", seed, opts)
	d.ref.randomize(rng.New(seed), opts)
	for _, s := range d.stores {
		s.Randomize(rng.New(seed), opts)
	}
}

func (d *differ) warmSnap() {
	seed := d.src.Uint64n(1 << 32)
	bases := make([]uint64, 1+d.src.Uint64n(8))
	for k := range bases {
		bases[k] = d.src.Uint64n(1 << 24)
	}
	frac := float64(d.src.Uint64n(101)) / 100
	d.what = fmt.Sprintf("WarmSnap(seed %d, %v, %v)", seed, bases, frac)
	d.ref.warmSnap(rng.New(seed), bases, frac)
	for _, s := range d.stores {
		s.WarmSnap(0, rng.New(seed), bases, frac)
	}
}

// verdicts compares block i's value, the data counters' observed-max
// register, and CanEncode's verdicts on the block.
func (d *differ) verdicts(i int) {
	cur := d.ref.vals[i]
	for k, s := range d.stores {
		if got := s.Counter(0, i); got != cur {
			d.fatalf("store %d block %d = %d, reference %d", k, i, got, cur)
		}
		if got := s.ObservedMax(0); got != d.ref.observed[0] {
			d.fatalf("store %d ObservedMax(0) %d, reference %d", k, got, d.ref.observed[0])
		}
		for _, up := range []uint64{1, 8, 128} {
			if got, want := s.CanEncode(0, i, cur+up), d.ref.canEncodeData(i, cur+up); got != want {
				d.fatalf("store %d CanEncode(0, %d, cur+%d) %v, reference %v", k, i, up, got, want)
			}
		}
	}
}

// checkAll compares every data and tree counter, every group and node
// maximum, every tree counter's CanEncode verdicts, every level's
// observed-max register and the EncodeState bytes, and checks each encoded
// group's summary against its offsets.
func (d *differ) checkAll() {
	want := d.refBytes()
	for k, s := range d.stores {
		for l := range s.lv {
			checkLevel(d, k, l, &s.lv[l])
		}
		for i, v := range d.ref.vals {
			if got := s.Counter(0, i); got != v {
				d.fatalf("store %d block %d = %d, reference %d", k, i, got, v)
			}
		}
		for j := 0; j < d.ref.numGroups(); j++ {
			if got, want := s.GroupMax(0, j), d.ref.groupMax(j); got != want {
				d.fatalf("store %d GroupMax(%d) = %d, reference %d", k, j, got, want)
			}
		}
		for l := 1; l < len(d.ref.tree); l++ {
			for c := range d.ref.tree[l] {
				d.treeVerdicts(l, c)
			}
		}
		if got := s.ObservedMax(0); got != d.ref.observed[0] {
			d.fatalf("store %d ObservedMax(0) %d, reference %d", k, got, d.ref.observed[0])
		}
		if !bytes.Equal(encodeStore(s), want) {
			d.fatalf("store %d EncodeState differs from the reference", k)
		}
	}
}

// checkLevel checks store k's level l: each encoded group's summary
// against its offsets, read through the level's accessor, a high-nibble
// slot held exactly while the group's largest offset exceeds nibMax, and
// every slot of both slabs either held by one group or free.
func checkLevel(d *differ, k, l int, lv *level) {
	held := []map[uint32]int{{}, {}} // hiSlots, wideSlots handle -> group
	for j := range lv.groups {
		g := lv.groups[j]
		if g.slot != 0 {
			slab := 0
			if g.wide {
				slab = 1
			}
			if other, dup := held[slab][g.slot]; dup {
				d.fatalf("store %d level %d groups %d and %d hold slot %d", k, l, other, j, g.slot)
			}
			held[slab][g.slot] = j
		}
		if g.wide {
			if g.slot == 0 {
				d.fatalf("store %d level %d wide group %d holds no slot", k, l, j)
			}
			continue
		}
		o := lv.offsets(j)
		offs := make([]uint64, o.n)
		for b := range offs {
			offs[b] = o.at(b)
		}
		zeros := 0
		for _, v := range offs {
			if v == 0 {
				zeros++
			}
		}
		if zeros == 0 || slices.Max(offs) != uint64(g.maxOff) || zeros != int(g.atBase) ||
			(g.slot != 0) != (g.maxOff > nibMax) {
			d.fatalf("store %d level %d group %d summary %+v, offsets %v", k, l, j, g, offs)
		}
	}
	for slab, s := range []struct {
		size, buf int
		free      []uint32
	}{{lv.hiSlots.size, len(lv.hiSlots.buf), lv.hiSlots.free}, {lv.wideSlots.size, len(lv.wideSlots.buf), lv.wideSlots.free}} {
		for _, h := range s.free {
			if j, ok := held[slab][h]; ok {
				d.fatalf("store %d level %d group %d holds freed slot %d", k, l, j, h)
			}
		}
		if s.size != 0 && len(held[slab])+len(s.free) != s.buf/s.size {
			d.fatalf("store %d level %d slab %d: %d held + %d free of %d slots",
				k, l, slab, len(held[slab]), len(s.free), s.buf/s.size)
		}
	}
}

// span lists the indices in [start, end).
func span(start, end int) []int {
	var idx []int
	for i := start; i < end; i++ {
		idx = append(idx, i)
	}
	return idx
}

func (d *differ) refBytes() []byte {
	var e snapshot.Enc
	d.ref.encodeState(&e)
	return e.Data()
}

func encodeStore(s *Store) []byte {
	var e snapshot.Enc
	s.EncodeState(&e)
	return e.Data()
}

// checkCrossings fails unless the stream moved groups between the storage
// forms in both directions at every level: a slot taken by a write that
// jumps a counter past nibMax (a ZCC jump under Morphable, a plain write
// under SC-64) and by a read-triggered update, and at tree levels by a
// jump; a slot given back by a relevel, a base lift and a re-pack (a
// corruption that narrows the group); wide groups made by Corrupt and
// restored as wide by DecodeState; and WarmSnap run over groups holding a
// slot, which it keeps.
func (d *differ) checkCrossings(t *testing.T) {
	need := []move{
		{0, "relevel", "slot", "nibbles"},
		{0, "lift", "slot", "nibbles"},
		{0, "corrupt", "slot", "nibbles"},
		{0, "corrupt", "nibbles", "wide"},
		{0, "roundTrip", "wide", "wide"},
		{0, "warmSnap", "slot", "slot"},
		{0, "jump", "nibbles", "slot"},
		{0, "read-update", "nibbles", "slot"},
	}
	for l := 1; l < len(d.ref.tree); l++ {
		need = append(need, move{l, "jump", "nibbles", "slot"}, move{l, "relevel", "slot", "nibbles"},
			move{l, "corrupt", "nibbles", "wide"}, move{l, "warmSnap", "slot", "slot"})
	}
	for _, m := range need {
		if d.moves[m] == 0 {
			t.Errorf("level %d: no %s moved a group from %s to %s", m.level, m.op, m.from, m.to)
		}
	}
	if t.Failed() {
		for m, n := range d.moves {
			t.Logf("%+v x%d", m, n)
		}
	}
}

// TestDifferentialAgainstReference drives the encoded Store and the
// plain-value reference through seeded streams of every data- and
// tree-counter operation on all three schemes. Every 1000 ops all state is compared;
// halfway through, a store restored from the reference's bytes joins and
// must continue identically.
func TestDifferentialAgainstReference(t *testing.T) {
	const ops = 60000
	for gi, g := range diffGeometries {
		t.Run(g.name, func(t *testing.T) {
			d := newDiffer(t, g.scheme, g.blocks, rng.New(uint64(500+gi)))
			d.randomize()
			for d.op < ops {
				if d.op == ops/2 {
					d.join()
				}
				d.step()
				if d.op%1000 == 0 {
					d.checkAll()
				}
			}
			for l, n := range d.ref.relevels {
				if n == 0 {
					t.Fatalf("stream never releveled a level-%d group or node", l)
				}
			}
			if g.scheme != SGX {
				d.checkCrossings(t)
			}
		})
	}
}

// TestDataCounterFootprint pins the encoded layout's size, counted from
// slice capacities, for a SizeSmall lifetime's 1 671 168 data counters
// after Randomize: at most 0.65 bytes per block for Morphable, whose
// groups then hold no high-nibble slot, and at most 1.25 for SC-64, whose
// wider groups mostly hold one (plain uint64s held 8, one offset byte per
// counter 1.25).
func TestDataCounterFootprint(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		limit  float64
	}{{Morphable, 0.65}, {SC64, 1.25}} {
		s := NewStore(c.scheme, 1_671_168*BlockBytes)
		s.Randomize(rng.New(1), DefaultRandomize())
		lv := &s.lv[0]
		n := cap(lv.lo) + cap(lv.hiSlots.buf) + 4*cap(lv.hiSlots.free) +
			cap(lv.groups)*int(unsafe.Sizeof(lv.groups[0])) +
			8*(cap(lv.wideSlots.buf)+cap(lv.full)) + 4*cap(lv.wideSlots.free)
		per := float64(n) / float64(s.NumDataBlocks())
		t.Logf("%v: %.3f bytes per block, %d of %d groups hold a slot",
			c.scheme, per, len(lv.hiSlots.buf)/lv.hiSlots.size, len(lv.groups))
		if per > c.limit {
			t.Fatalf("%v: %.3f bytes of data-counter state per block, want <= %.2f", c.scheme, per, c.limit)
		}
	}
}
