// Package tlb models a translation lookaside buffer for the paper's
// Section-III characterization (Figure 4): TLB misses per LLC miss under
// 4 KB vs 2 MB pages. The TLB caches page translations; a counter block
// under Morphable Counters has comparable coverage to a 4 KB PTE, which is
// the paper's motivating analogy.
package tlb

import "rmcc/internal/mem/cache"

// Config sizes a TLB.
type Config struct {
	Entries   int // total translation entries (Table I: 1536)
	Ways      int // associativity
	PageBytes int // 4 KiB or 2 MiB
}

// TLB is a set-associative translation cache.
type TLB struct {
	cfg   Config
	inner *cache.Cache
}

// New builds a TLB; it panics on invalid geometry, matching package cache.
func New(cfg Config) *TLB {
	return &TLB{
		cfg: cfg,
		inner: cache.New(cache.Config{
			SizeBytes: cfg.Entries * cfg.PageBytes,
			Ways:      cfg.Ways,
			LineBytes: cfg.PageBytes,
		}),
	}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Lookup translates the virtual address, filling on miss, and reports
// whether it hit. TLB entries are never dirty.
func (t *TLB) Lookup(vaddr uint64) bool {
	return t.inner.Access(vaddr, false).Hit
}

// Stats exposes hit/miss counters.
func (t *TLB) Stats() cache.Stats { return t.inner.Stats() }

// ResetStats zeroes the counters (after warmup) without flushing entries.
func (t *TLB) ResetStats() { t.inner.ResetStats() }
