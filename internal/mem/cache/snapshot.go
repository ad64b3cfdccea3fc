package cache

import (
	"math"

	"rmcc/internal/snapshot"
)

// EncodeState serializes the cache's mutable state — every line's tag,
// valid/dirty bits, and LRU stamp, plus the global stamp and counters —
// prefixed with the geometry so DecodeState can refuse a mismatched shape.
// Configuration is not serialized: the restoring side rebuilds the cache
// from the same experiment config and only the contents travel. An invalid
// line is written as tag 0, clean, stamp 0.
func (c *Cache) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(c.cfg.Sets()))
	e.U64(uint64(c.cfg.Ways))
	e.U64(c.stamp)
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.Writebacks)
	for i, k := range c.keys {
		var tag uint64
		if k != 0 {
			tag = k - 1
		}
		e.U64(tag)
		e.Bool(k != 0)
		e.Bool(c.dirty[i])
		e.U64(c.lru[i])
	}
}

// DecodeState restores state written by EncodeState into a cache built with
// the identical configuration. It refuses line states the model never
// produces: an invalid line with any field set, or a valid line with stamp
// 0 or the all-ones tag.
func (d *Cache) DecodeState(dec *snapshot.Dec) error {
	if sets, ways := dec.U64(), dec.U64(); sets != uint64(d.cfg.Sets()) || ways != uint64(d.cfg.Ways) {
		if err := dec.Err(); err != nil {
			return err
		}
		return dec.Failf("cache geometry %dx%d, want %dx%d", sets, ways, d.cfg.Sets(), d.cfg.Ways)
	}
	d.stamp = dec.U64()
	d.stats.Hits = dec.U64()
	d.stats.Misses = dec.U64()
	d.stats.Evictions = dec.U64()
	d.stats.Writebacks = dec.U64()
	for i := range d.keys {
		tag, valid, dirty, lru := dec.U64(), dec.Bool(), dec.Bool(), dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if valid != (lru != 0) || valid && tag == math.MaxUint64 || !valid && (tag != 0 || dirty) {
			return dec.Failf("cache line %d: tag %#x valid %v dirty %v lru %d", i, tag, valid, dirty, lru)
		}
		d.keys[i], d.lru[i], d.dirty[i] = 0, lru, dirty
		if valid {
			d.keys[i] = tag + 1
		}
	}
	return dec.Err()
}
