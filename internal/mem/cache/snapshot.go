package cache

import (
	"math"

	"rmcc/internal/snapshot"
)

// EncodeState serializes the cache's mutable state: the geometry (sets,
// ways), so DecodeState can refuse a mismatched shape, the counters, and
// every line word exactly as the cache holds it, set by set, each set
// most recently used first: (tag+1)<<1 | dirty for a valid line, 0 for an
// invalid way. Configuration is not serialized: the restoring side
// rebuilds the cache from the same experiment config and only the
// contents travel.
func (c *Cache) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(c.cfg.Sets()))
	e.U64(uint64(c.cfg.Ways))
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.Writebacks)
	for _, k := range c.lines {
		e.U64(k)
	}
}

// DecodeState restores state written by EncodeState into a cache built
// with the identical configuration. It refuses line states the model
// never produces: a valid line behind an invalid way, a word whose tag no
// 64-bit address has under this geometry (a word of 1, an invalid way
// marked dirty, included), and one tag twice in a set, dirty or clean.
func (c *Cache) DecodeState(d *snapshot.Dec) error {
	ways := c.cfg.Ways
	if sets, w := d.U64(), d.U64(); sets != uint64(c.cfg.Sets()) || w != uint64(ways) {
		if err := d.Err(); err != nil {
			return err
		}
		return d.Failf("cache geometry %dx%d, want %dx%d", sets, w, c.cfg.Sets(), ways)
	}
	c.stats.Hits = d.U64()
	c.stats.Misses = d.U64()
	c.stats.Evictions = d.U64()
	c.stats.Writebacks = d.U64()
	maxKey := uint64(math.MaxUint64)>>(c.tagShift+c.lineShift) + 1 // tag+1 of the top line
	for base := 0; base < len(c.lines); base += ways {
		lines := c.lines[base : base+ways]
		for w := range lines {
			k := d.U64()
			if err := d.Err(); err != nil {
				return err
			}
			switch {
			case k == 0:
			case w > 0 && lines[w-1] == 0:
				return d.Failf("cache set %d: valid line %#x behind an invalid way", base/ways, k)
			case k>>1 == 0 || k>>1 > maxKey:
				return d.Failf("cache set %d: line word %#x holds no tag", base/ways, k)
			case find(lines[:w], k) >= 0:
				return d.Failf("cache set %d: two lines with tag %#x", base/ways, k>>1-1)
			}
			lines[w] = k
		}
	}
	return d.Err()
}
