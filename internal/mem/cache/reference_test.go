package cache

import (
	"bytes"
	"fmt"
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

func (r *refCache) Touch(addr uint64) {
	if l := r.lookup(addr); l != nil {
		r.stamp++
		l.lru = r.stamp
	}
}

func (r *refCache) Invalidate(addr uint64) (present, dirty bool) {
	if l := r.lookup(addr); l != nil {
		dirty = l.dirty
		*l = refLine{}
		return true, dirty
	}
	return false, false
}

func (r *refCache) MarkClean(addr uint64) {
	if l := r.lookup(addr); l != nil {
		l.dirty = false
	}
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

func (r *refCache) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(len(r.sets)))
	e.U64(uint64(r.cfg.Ways))
	e.U64(r.stamp)
	e.U64(r.stats.Hits)
	e.U64(r.stats.Misses)
	e.U64(r.stats.Evictions)
	e.U64(r.stats.Writebacks)
	for _, s := range r.sets {
		for _, l := range s {
			e.U64(l.tag)
			e.Bool(l.valid)
			e.Bool(l.dirty)
			e.U64(l.lru)
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
// misses: most addresses reuse a pool of 2x-associativity tags in a few
// sets (so LRU order and evictions matter), the rest are uniform over the
// 64-bit space (so victim addresses carry high tag bits).
func diffStream(cfg Config, r *rng.Source) func() uint64 {
	lineBytes := uint64(cfg.LineBytes)
	sets := uint64(cfg.Sets())
	hotSets := [4]uint64{0, sets - 1, r.Uint64n(sets), r.Uint64n(sets)}
	pool := 2 * uint64(cfg.Ways)
	return func() uint64 {
		off := r.Uint64n(lineBytes)
		if r.Uint64n(8) == 0 {
			return r.Uint64()
		}
		tag := r.Uint64n(pool)
		set := hotSets[r.Uint64n(4)]
		return (tag*sets+set)*lineBytes + off
	}
}

func encode(s interface{ EncodeState(*snapshot.Enc) }) []byte {
	var e snapshot.Enc
	s.EncodeState(&e)
	return e.Data()
}

// TestDifferentialAgainstReference drives the Cache and the literal
// reference model with the same seeded streams of every operation and
// requires identical results, counters, occupancy, and snapshot bytes.
// Halfway through, a third cache restored from the reference's snapshot
// joins and must continue identically.
func TestDifferentialAgainstReference(t *testing.T) {
	const ops = 20000
	for gi, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			r := rng.New(uint64(1000 + gi))
			next := diffStream(g.cfg, r)
			ref := newRef(g.cfg)
			caches := []*Cache{New(g.cfg)}
			check := func(op int, what string) {
				for ci, c := range caches {
					if c.ResidentLines() != ref.ResidentLines() {
						t.Fatalf("op %d %s, cache %d: %d resident lines, reference %d",
							op, what, ci, c.ResidentLines(), ref.ResidentLines())
					}
					if !bytes.Equal(encode(c), encode(ref)) {
						t.Fatalf("op %d %s, cache %d: snapshot bytes differ from the reference", op, what, ci)
					}
				}
			}
			for op := 0; op < ops; op++ {
				if op == ops/2 {
					restored := New(g.cfg)
					if err := restored.DecodeState(snapshot.NewDec(encode(ref))); err != nil {
						t.Fatalf("decode reference state: %v", err)
					}
					caches = append(caches, restored)
					check(op, "restore")
				}
				addr := next()
				var what string
				switch k := r.Uint64n(16); {
				case k < 10:
					write := k&1 == 0
					what = fmt.Sprintf("Access(%#x, %v)", addr, write)
					want := ref.Access(addr, write)
					for ci, c := range caches {
						if got := c.Access(addr, write); got != want {
							t.Fatalf("op %d %s, cache %d: %+v, reference %+v", op, what, ci, got, want)
						}
					}
				case k < 12:
					what = fmt.Sprintf("Probe(%#x)", addr)
					want := ref.Probe(addr)
					for ci, c := range caches {
						if got := c.Probe(addr); got != want {
							t.Fatalf("op %d %s, cache %d: %v, reference %v", op, what, ci, got, want)
						}
					}
				case k < 13:
					what = fmt.Sprintf("Touch(%#x)", addr)
					ref.Touch(addr)
					for _, c := range caches {
						c.Touch(addr)
					}
				case k < 15:
					what = fmt.Sprintf("Invalidate(%#x)", addr)
					wp, wd := ref.Invalidate(addr)
					for ci, c := range caches {
						if p, d := c.Invalidate(addr); p != wp || d != wd {
							t.Fatalf("op %d %s, cache %d: (%v, %v), reference (%v, %v)", op, what, ci, p, d, wp, wd)
						}
					}
				default:
					what = fmt.Sprintf("MarkClean(%#x)", addr)
					ref.MarkClean(addr)
					for _, c := range caches {
						c.MarkClean(addr)
					}
				}
				for ci, c := range caches {
					if c.Stats() != ref.stats {
						t.Fatalf("op %d %s, cache %d: stats %+v, reference %+v", op, what, ci, c.Stats(), ref.stats)
					}
				}
				if op%1000 == 999 {
					check(op, what)
				}
			}
			check(ops, "end")
			if s := ref.stats; s.Hits == 0 || s.Evictions == 0 || s.Writebacks == 0 {
				t.Fatalf("stream never hit, evicted, or wrote back: %+v", s)
			}
		})
	}
}
