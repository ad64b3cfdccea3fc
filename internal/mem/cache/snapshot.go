package cache

import (
	"math"

	"rmcc/internal/snapshot"
)

// EncodeState serializes the cache's mutable state — every line's tag,
// valid/dirty bits, and LRU stamp, plus a global stamp and the counters —
// prefixed with the geometry so DecodeState can refuse a mismatched shape.
// Configuration is not serialized: the restoring side rebuilds the cache
// from the same experiment config and only the contents travel.
//
// The cache keeps recency order, not stamps, so it writes each set's
// valid lines most recent first with stamps Ways down to 1, then its
// invalid lines as tag 0, clean, stamp 0, and writes Ways as the global
// stamp. A stamp-per-line cache that loads these bytes makes the same LRU
// choices.
func (c *Cache) EncodeState(e *snapshot.Enc) {
	ways := c.cfg.Ways
	e.U64(uint64(c.cfg.Sets()))
	e.U64(uint64(ways))
	e.U64(uint64(ways))
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.Writebacks)
	for i, k := range c.lines {
		var tag, stamp uint64
		if k != 0 {
			tag, stamp = k>>1-1, uint64(ways-i%ways)
		}
		e.U64(tag)
		e.Bool(k != 0)
		e.Bool(k&1 != 0)
		e.U64(stamp)
	}
}

// DecodeState restores state written by EncodeState, or by a
// stamp-per-line cache, into a cache built with the identical
// configuration. Each set's valid lines are ordered by descending stamp;
// the global stamp is read and ignored, since only the order of stamps
// within a set matters. It refuses line states the model never produces:
// an invalid line with any field set, a valid line with stamp 0 or a tag
// no 64-bit address has under this geometry, and two valid lines of one
// set with the same stamp or the same tag.
func (d *Cache) DecodeState(dec *snapshot.Dec) error {
	ways := d.cfg.Ways
	if sets, w := dec.U64(), dec.U64(); sets != uint64(d.cfg.Sets()) || w != uint64(ways) {
		if err := dec.Err(); err != nil {
			return err
		}
		return dec.Failf("cache geometry %dx%d, want %dx%d", sets, w, d.cfg.Sets(), ways)
	}
	dec.U64() // global stamp
	d.stats.Hits = dec.U64()
	d.stats.Misses = dec.U64()
	d.stats.Evictions = dec.U64()
	d.stats.Writebacks = dec.U64()
	maxTag := uint64(math.MaxUint64) >> (d.tagShift + d.lineShift)
	stamps := make([]uint64, ways)
	for base := 0; base < len(d.lines); base += ways {
		lines := d.lines[base : base+ways]
		n := 0 // valid lines so far, kept sorted by descending stamp
		for w := 0; w < ways; w++ {
			tag, valid, dirty, lru := dec.U64(), dec.Bool(), dec.Bool(), dec.U64()
			if err := dec.Err(); err != nil {
				return err
			}
			if valid != (lru != 0) || valid && tag > maxTag || !valid && (tag != 0 || dirty) {
				return dec.Failf("cache line %d: tag %#x valid %v dirty %v lru %d", base+w, tag, valid, dirty, lru)
			}
			if !valid {
				continue
			}
			key := (tag + 1) << 1
			i := n
			for i > 0 && stamps[i-1] < lru {
				i--
			}
			for j := 0; j < n; j++ {
				if stamps[j] == lru {
					return dec.Failf("cache set %d: two valid lines with stamp %d", base/ways, lru)
				}
				if lines[j]|1 == key|1 {
					return dec.Failf("cache set %d: two valid lines with tag %#x", base/ways, tag)
				}
			}
			if dirty {
				key |= 1
			}
			copy(stamps[i+1:n+1], stamps[i:n])
			copy(lines[i+1:n+1], lines[i:n])
			stamps[i], lines[i] = lru, key
			n++
		}
		clear(lines[n:])
	}
	return dec.Err()
}
