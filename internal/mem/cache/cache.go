// Package cache implements a set-associative, write-back cache model with
// true-LRU replacement. It backs the L1/L2/L3 data caches, the memory
// controller's counter cache, and (via package tlb) the TLB.
//
// An LRU set is fully described by the recency order of its lines, so
// each set keeps its lines in that order instead of per-line timestamps,
// and the LRU victim is the set's last way.
//
// The model is functional: it tracks presence, dirtiness, and replacement
// state, not contents. Contents live in the functional memory image owned by
// the secure-memory engine; what the simulator needs from a cache is *which*
// accesses hit and *which* victims are written back.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line (block) size; 64 for data caches
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways %d must be positive", c.Ways)
	case c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: SizeBytes %d not divisible into %d-way sets of %dB lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	switch {
	case sets&(sets-1) != 0:
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	case sets == 1 && c.LineBytes == 1:
		// The tag would be the whole address, leaving no spare value
		// for the invalid-way key.
		return fmt.Errorf("cache: a single set of 1-byte lines is not supported")
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Stats counts cache events since construction or the last ResetStats.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// Cache is a set-associative LRU cache. Not safe for concurrent use; the
// simulator is single-threaded on the event engine.
//
// Line state is kept in flat set-major arrays (way w of set s at index
// s*Ways+w), so a lookup compares only the 8-byte keys of one set. Each
// set is kept in recency order: its valid lines fill the front of its
// ways, most recently used first, and its invalid ways (key 0) sit behind
// them. The set's last way is therefore always the victim: an invalid
// way while the set has room, else the least recently used line.
type Cache struct {
	cfg       Config
	lineShift uint
	tagShift  uint // set-index bits: tag = line number >> tagShift
	setMask   uint64
	keys      []uint64 // tag+1 of a valid line; 0 marks an invalid way
	dirty     []bool
	stats     Stats
}

// New builds a cache; it panics on an invalid configuration because cache
// geometry is fixed at experiment-definition time.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Sets()
	n := nSets * cfg.Ways
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(nSets))),
		setMask:   uint64(nSets - 1),
		keys:      make([]uint64, n),
		dirty:     make([]bool, n),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing contents (used after
// warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// set returns the keys and dirty bits of the set holding addr, most
// recently used first, and the key a valid line holding addr carries.
func (c *Cache) set(addr uint64) (keys []uint64, dirty []bool, key uint64) {
	l := addr >> c.lineShift
	base := int(l&c.setMask) * c.cfg.Ways
	end := base + c.cfg.Ways
	return c.keys[base:end], c.dirty[base:end], l>>c.tagShift + 1
}

// find returns the way in keys holding key, or -1.
func find(keys []uint64, key uint64) int {
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Result describes the outcome of an Access.
type Result struct {
	Hit        bool
	Evicted    bool   // a valid victim was displaced
	Writeback  bool   // the victim was dirty (needs a memory write)
	VictimAddr uint64 // line address of the victim, valid when Evicted
}

// Access looks up addr, allocates on miss (write-allocate), updates LRU,
// and marks the line dirty on writes. It returns what happened, including
// any victim that must be written back.
func (c *Cache) Access(addr uint64, write bool) Result {
	keys, dirty, key := c.set(addr)
	if i := find(keys, key); i >= 0 {
		d := dirty[i] || write
		copy(keys[1:i+1], keys[:i])
		copy(dirty[1:i+1], dirty[:i])
		keys[0], dirty[0] = key, d
		c.stats.Hits++
		return Result{Hit: true}
	}
	c.stats.Misses++
	var res Result
	last := len(keys) - 1
	if old := keys[last]; old != 0 {
		res.Evicted = true
		res.Writeback = dirty[last]
		// The victim shares addr's set-index bits.
		res.VictimAddr = (old-1)<<(c.tagShift+c.lineShift) | addr&(c.setMask<<c.lineShift)
		c.stats.Evictions++
		if res.Writeback {
			c.stats.Writebacks++
		}
	}
	copy(keys[1:], keys[:last])
	copy(dirty[1:], dirty[:last])
	keys[0], dirty[0] = key, write
	return res
}

// Probe reports whether addr is resident without updating LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	keys, _, key := c.set(addr)
	return find(keys, key) >= 0
}

// Invalidate drops addr if resident and reports whether the dropped line
// was dirty (the caller owns the resulting writeback).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	keys, dirtyBits, key := c.set(addr)
	i := find(keys, key)
	if i < 0 {
		return false, false
	}
	dirty = dirtyBits[i]
	last := len(keys) - 1
	copy(keys[i:], keys[i+1:])
	copy(dirtyBits[i:], dirtyBits[i+1:])
	keys[last], dirtyBits[last] = 0, false
	return true, dirty
}

// ResidentLines returns the number of valid lines (for tests and occupancy
// stats).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}
