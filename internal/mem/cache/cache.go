// Package cache implements a set-associative, write-back cache model with
// true-LRU replacement. It backs the L1/L2/L3 data caches, the memory
// controller's counter cache, and (via package tlb) the TLB.
//
// An LRU set is fully described by the recency order of its lines, so
// each set keeps its lines in that order instead of per-line timestamps,
// and the LRU victim is the set's last way. A line is one word, its tag
// and dirty bit together, so a reorder moves one slice, and a hit on a
// set's most recent line, the commonest hit, changes no order at all.
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
	case c.LineBytes*sets < 4:
		// The line and set-index bits must take at least two address
		// bits, so that a tag+1 fits in 63 bits beside the dirty bit.
		return fmt.Errorf("cache: %d sets of %dB lines index fewer than 4 bytes", sets, c.LineBytes)
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
// Line state is kept in one flat set-major array (way w of set s at index
// s*Ways+w). A valid line is the word (tag+1)<<1 | dirty, and 0 marks an
// invalid way, so a lookup compares only the 8-byte words of one set. Each
// set is kept in recency order: its valid lines fill the front of its
// ways, most recently used first, and its invalid ways sit behind them.
// The set's last way is therefore always the victim: an invalid way while
// the set has room, else the least recently used line.
type Cache struct {
	cfg       Config
	lineShift uint
	tagShift  uint // set-index bits: tag = line number >> tagShift
	setMask   uint64
	lines     []uint64 // (tag+1)<<1 | dirty of a valid line; 0 marks an invalid way
	stats     Stats
}

// New builds a cache; it panics on an invalid configuration because cache
// geometry is fixed at experiment-definition time.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(nSets))),
		setMask:   uint64(nSets - 1),
		lines:     make([]uint64, nSets*cfg.Ways),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing contents (used after
// warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// set returns the lines of the set holding addr, most recently used
// first, and the clean word of a valid line holding addr.
func (c *Cache) set(addr uint64) (lines []uint64, key uint64) {
	l := addr >> c.lineShift
	base := int(l&c.setMask) * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways], (l>>c.tagShift + 1) << 1
}

// find returns the way in lines holding key, clean or dirty, or -1.
func find(lines []uint64, key uint64) int {
	key |= 1
	for i, k := range lines {
		if k|1 == key {
			return i
		}
	}
	return -1
}

// lineAddr returns the address of the line whose word is k in the set
// holding addr: the line shares addr's set-index bits.
func (c *Cache) lineAddr(k, addr uint64) uint64 {
	return (k>>1-1)<<(c.tagShift+c.lineShift) | addr&(c.setMask<<c.lineShift)
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
	lines, key := c.set(addr)
	if write {
		key |= 1
	}
	// A hit on the most recent line leaves the set's order as it is.
	if lines[0]|1 == key|1 {
		lines[0] |= key
		c.stats.Hits++
		return Result{Hit: true}
	}
	if i := find(lines[1:], key) + 1; i > 0 {
		k := lines[i] | key
		copy(lines[1:i+1], lines[:i])
		lines[0] = k
		c.stats.Hits++
		return Result{Hit: true}
	}
	c.stats.Misses++
	var res Result
	last := len(lines) - 1
	if old := lines[last]; old != 0 {
		res.Evicted = true
		res.Writeback = old&1 != 0
		res.VictimAddr = c.lineAddr(old, addr)
		c.stats.Evictions++
		if res.Writeback {
			c.stats.Writebacks++
		}
	}
	copy(lines[1:], lines[:last])
	lines[0] = key
	return res
}

// Probe reports whether addr is resident without updating LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	lines, key := c.set(addr)
	return find(lines, key) >= 0
}

// Invalidate drops addr if resident and reports whether the dropped line
// was dirty (the caller owns the resulting writeback).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	lines, key := c.set(addr)
	i := find(lines, key)
	if i < 0 {
		return false, false
	}
	dirty = lines[i]&1 != 0
	copy(lines[i:], lines[i+1:])
	lines[len(lines)-1] = 0
	return true, dirty
}

// ResidentLines returns the number of valid lines (for tests and occupancy
// stats).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, k := range c.lines {
		if k != 0 {
			n++
		}
	}
	return n
}

// MaxLineAddr returns the highest line address the cache holds, and false
// when it holds none.
func (c *Cache) MaxLineAddr() (addr uint64, ok bool) {
	ways := c.cfg.Ways
	for i, k := range c.lines {
		if k == 0 {
			continue
		}
		if a := c.lineAddr(k, uint64(i/ways)<<c.lineShift); !ok || a > addr {
			addr, ok = a, true
		}
	}
	return addr, ok
}
