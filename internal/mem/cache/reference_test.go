package cache

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"rmcc/internal/rng"
	"rmcc/internal/snapshot"
)

// refCache is the literal model the flat-array Cache is checked against:
// one struct per line, sets as slices, and a victim rule written exactly as
// stated (first invalid way, else least recently used).
type refCache struct {
	cfg       Config
	lineShift uint
	setBits   uint
	setMask   uint64
	sets      [][]refLine
	stamp     uint64
	stats     Stats
	// mruHits counts read (0) and write (1) hits on the most recently
	// used line of its set, the hits Cache serves without a reorder.
	mruHits [2]uint64
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; larger = more recent
}

func newRef(cfg Config) *refCache {
	r := &refCache{cfg: cfg, setMask: uint64(cfg.Sets() - 1)}
	for 1<<r.lineShift != cfg.LineBytes {
		r.lineShift++
	}
	for m := r.setMask; m != 0; m >>= 1 {
		r.setBits++
	}
	r.sets = make([][]refLine, cfg.Sets())
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) index(addr uint64) (set, tag uint64) {
	l := addr >> r.lineShift
	return l & r.setMask, l >> r.setBits
}

func (r *refCache) lookup(addr uint64) *refLine {
	set, tag := r.index(addr)
	for i := range r.sets[set] {
		if l := &r.sets[set][i]; l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

func (r *refCache) Access(addr uint64, write bool) Result {
	r.stamp++
	if l := r.lookup(addr); l != nil {
		set, _ := r.index(addr)
		if !slices.ContainsFunc(r.sets[set], func(o refLine) bool { return o.valid && o.lru > l.lru }) {
			w := 0
			if write {
				w = 1
			}
			r.mruHits[w]++
		}
		l.lru = r.stamp
		if write {
			l.dirty = true
		}
		r.stats.Hits++
		return Result{Hit: true}
	}
	r.stats.Misses++
	set, tag := r.index(addr)
	lines := r.sets[set]
	victim := -1
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range lines {
			if lines[i].lru < lines[victim].lru {
				victim = i
			}
		}
	}
	var res Result
	if v := lines[victim]; v.valid {
		res = Result{Evicted: true, Writeback: v.dirty,
			VictimAddr: (v.tag<<r.setBits | set) << r.lineShift}
		r.stats.Evictions++
		if v.dirty {
			r.stats.Writebacks++
		}
	}
	lines[victim] = refLine{tag: tag, valid: true, dirty: write, lru: r.stamp}
	return res
}

func (r *refCache) Probe(addr uint64) bool { return r.lookup(addr) != nil }

func (r *refCache) Invalidate(addr uint64) (present, dirty bool) {
	if l := r.lookup(addr); l != nil {
		dirty = l.dirty
		*l = refLine{}
		return true, dirty
	}
	return false, false
}

func (r *refCache) ResidentLines() int {
	n := 0
	for _, s := range r.sets {
		for _, l := range s {
			if l.valid {
				n++
			}
		}
	}
	return n
}

// EncodeState writes r in Cache.EncodeState's layout: geometry, counters,
// then each set's valid lines by descending stamp as (tag+1)<<1 | dirty
// words, followed by a 0 word per invalid way.
func (r *refCache) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(len(r.sets)))
	e.U64(uint64(r.cfg.Ways))
	e.U64(r.stats.Hits)
	e.U64(r.stats.Misses)
	e.U64(r.stats.Evictions)
	e.U64(r.stats.Writebacks)
	for _, s := range r.sets {
		valid := slices.DeleteFunc(slices.Clone(s), func(l refLine) bool { return !l.valid })
		slices.SortFunc(valid, func(a, b refLine) int { return cmp.Compare(b.lru, a.lru) })
		for _, l := range valid {
			k := (l.tag + 1) << 1
			if l.dirty {
				k |= 1
			}
			e.U64(k)
		}
		for range len(s) - len(valid) {
			e.U64(0)
		}
	}
}

// geometries lists every cache shape the simulator builds, plus a
// single-set cache.
var geometries = []struct {
	name string
	cfg  Config
}{
	{"L1-64K-8w", Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}},
	{"L2-1M-8w", Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64}},
	{"LLC-2M-16w", Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64}},
	{"LLC-8M-16w", Config{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64}},
	{"ctr-128K-32w", Config{SizeBytes: 128 << 10, Ways: 32, LineBytes: 64}},
	{"ctr-32K-32w", Config{SizeBytes: 32 << 10, Ways: 32, LineBytes: 64}},
	{"ctr-8K-32w", Config{SizeBytes: 8 << 10, Ways: 32, LineBytes: 64}},
	{"TLB-1536-12w-4K", Config{SizeBytes: 1536 << 12, Ways: 12, LineBytes: 4 << 10}},
	{"TLB-1536-12w-2M", Config{SizeBytes: 1536 << 21, Ways: 12, LineBytes: 2 << 20}},
	{"one-set-4w", Config{SizeBytes: 4 * 64, Ways: 4, LineBytes: 64}},
}

// diffStream yields a seeded address stream for cfg that both hits and
// misses: a quarter of the addresses repeat the previous one (so accesses
// hit the most recently used line), most others reuse a pool of
// 2x-associativity tags in a few sets (so LRU order and evictions
// matter), and the rest are uniform over the 64-bit space (so victim
// addresses carry high tag bits).
func diffStream(cfg Config, r *rng.Source) func() uint64 {
	lineBytes := uint64(cfg.LineBytes)
	sets := uint64(cfg.Sets())
	hotSets := [4]uint64{0, sets - 1, r.Uint64n(sets), r.Uint64n(sets)}
	pool := 2 * uint64(cfg.Ways)
	var prev uint64
	return func() uint64 {
		switch off := r.Uint64n(lineBytes); {
		case r.Uint64n(4) == 0:
		case r.Uint64n(8) == 0:
			prev = r.Uint64()
		default:
			tag := r.Uint64n(pool)
			set := hotSets[r.Uint64n(4)]
			prev = (tag*sets+set)*lineBytes + off
		}
		return prev
	}
}

func encode(s interface{ EncodeState(*snapshot.Enc) }) []byte {
	var e snapshot.Enc
	s.EncodeState(&e)
	return e.Data()
}

// diffOp is one operation of a differential stream: kind 0-11 is an
// Access (a write when even), 12-13 a Probe, 14-15 an Invalidate.
type diffOp struct {
	kind uint8
	addr uint64
}

func (o diffOp) String() string {
	switch {
	case o.kind < 12:
		return fmt.Sprintf("Access(%#x, %v)", o.addr, o.kind&1 == 0)
	case o.kind < 14:
		return fmt.Sprintf("Probe(%#x)", o.addr)
	default:
		return fmt.Sprintf("Invalidate(%#x)", o.addr)
	}
}

// runDiff drives a Cache and the literal reference model through ops and
// requires identical results and counters after every op, and identical
// occupancy and snapshot bytes every 1000 ops and at the end. Halfway
// through, a second cache restored from the reference's snapshot bytes
// joins and must continue identically.
// It returns the reference, for its final counters.
func runDiff(t testing.TB, cfg Config, ops []diffOp) *refCache {
	ref := newRef(cfg)
	caches := []*Cache{New(cfg)}
	check := func(op int, what string) {
		want := encode(ref)
		for ci, c := range caches {
			if c.ResidentLines() != ref.ResidentLines() {
				t.Fatalf("op %d %s, cache %d: %d resident lines, reference %d",
					op, what, ci, c.ResidentLines(), ref.ResidentLines())
			}
			if !bytes.Equal(encode(c), want) {
				t.Fatalf("op %d %s, cache %d: snapshot bytes differ from the reference", op, what, ci)
			}
		}
	}
	for op, o := range ops {
		if op == len(ops)/2 {
			restored := New(cfg)
			if err := restored.DecodeState(snapshot.NewDec(encode(ref))); err != nil {
				t.Fatalf("decode reference state: %v", err)
			}
			caches = append(caches, restored)
			check(op, "restore")
		}
		switch addr := o.addr; {
		case o.kind < 12:
			write := o.kind&1 == 0
			want := ref.Access(addr, write)
			for ci, c := range caches {
				if got := c.Access(addr, write); got != want {
					t.Fatalf("op %d %v, cache %d: %+v, reference %+v", op, o, ci, got, want)
				}
			}
		case o.kind < 14:
			want := ref.Probe(addr)
			for ci, c := range caches {
				if got := c.Probe(addr); got != want {
					t.Fatalf("op %d %v, cache %d: %v, reference %v", op, o, ci, got, want)
				}
			}
		default:
			wp, wd := ref.Invalidate(addr)
			for ci, c := range caches {
				if p, d := c.Invalidate(addr); p != wp || d != wd {
					t.Fatalf("op %d %v, cache %d: (%v, %v), reference (%v, %v)", op, o, ci, p, d, wp, wd)
				}
			}
		}
		for ci, c := range caches {
			if c.Stats() != ref.stats {
				t.Fatalf("op %d %v, cache %d: stats %+v, reference %+v", op, o, ci, c.Stats(), ref.stats)
			}
		}
		if op%1000 == 999 {
			check(op, o.String())
		}
	}
	check(len(ops), "end")
	return ref
}

// TestDifferentialAgainstReference runs seeded streams of every operation
// through runDiff on every geometry.
func TestDifferentialAgainstReference(t *testing.T) {
	const ops = 20000
	for gi, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			r := rng.New(uint64(1000 + gi))
			next := diffStream(g.cfg, r)
			stream := make([]diffOp, ops)
			for i := range stream {
				addr := next()
				stream[i] = diffOp{kind: uint8(r.Uint64n(16)), addr: addr}
			}
			ref := runDiff(t, g.cfg, stream)
			if s := ref.stats; s.Hits == 0 || s.Evictions == 0 || s.Writebacks == 0 {
				t.Fatalf("stream never hit, evicted, or wrote back: %+v", s)
			}
			if ref.mruHits[0] == 0 || ref.mruHits[1] == 0 {
				t.Fatalf("stream took %d read and %d write hits on a most recent line, want some of each",
					ref.mruHits[0], ref.mruHits[1])
			}
		})
	}
}

// FuzzCacheAgainstReference runs runDiff on fuzzed op streams. The first
// byte picks a geometry; each op after it is a kind byte (low 4 bits: the
// diffOp kind, high 4 bits: the offset within the line) and an address
// byte. Address byte 0xff takes the next 8 bytes as a raw address, and
// 0xfe repeats the previous op's address (so accesses hit the most
// recently used line); otherwise its high 6 bits pick one of 2*Ways tags
// and its low 2 bits one of four sets, so streams hit, fill sets and
// evict.
func FuzzCacheAgainstReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 4, 0, 8, 14, 4, 0, 12, 0, 0})
	f.Add([]byte{2, 0, 1, 0, 5, 0, 9, 0, 13, 0, 17, 15, 5, 1, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1})
	f.Add([]byte{9, 0, 0, 1, 4, 0, 8, 0, 12, 0, 16, 14, 8, 0, 20, 12, 0})
	f.Add([]byte{4, 1, 4, 0, 0xfe, 1, 0xfe, 0, 8, 2, 0xfe, 15, 0xfe, 0, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := geometries[int(data[0])%len(geometries)].cfg
		lineBytes, sets := uint64(cfg.LineBytes), uint64(cfg.Sets())
		hotSets := [4]uint64{0, 1 % sets, sets / 2, sets - 1}
		pool := 2 * uint64(cfg.Ways)
		var ops []diffOp
		var addr uint64
		for data = data[1:]; len(data) >= 2; {
			kind, a := data[0], data[1]
			data = data[2:]
			switch {
			case a == 0xff && len(data) >= 8:
				addr = binary.LittleEndian.Uint64(data)
				data = data[8:]
			case a == 0xfe:
			default:
				tag, set := uint64(a>>2)%pool, hotSets[a&3]
				addr = (tag*sets+set)*lineBytes + uint64(kind>>4)*lineBytes/16
			}
			ops = append(ops, diffOp{kind: kind & 15, addr: addr})
		}
		runDiff(t, cfg, ops)
	})
}
