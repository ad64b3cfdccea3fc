// Package vm translates the virtual addresses workloads emit into the
// simulated physical address space, with demand paging onto randomly placed
// physical pages.
//
// Page size matters to this paper twice: the TLB characterization
// (Figure 4: 4 KB vs 2 MB pages) and Morphable Counters' reliance on
// physically contiguous 8 KB regions — under 4 KB pages the OS may map
// adjacent virtual pages far apart, splitting one counter block's coverage
// across two (§III). All main experiments run under 2 MB huge pages, like
// the paper's.
//
// A mapper never maps more pages than physical memory has, so its page
// table is a fixed open-addressed array sized at construction to at least
// twice the physical page count: it never grows, never passes half full,
// and a translation is one hash and a short linear probe.
package vm

import (
	"errors"
	"fmt"
	"math/bits"

	"rmcc/internal/rng"
)

// ErrOutOfMemory reports the first touch of a page when every physical
// page is already mapped.
var ErrOutOfMemory = errors.New("vm: out of physical memory")

// slot is one page-table entry: key is vpage+1, and 0 marks an empty slot.
type slot struct{ key, ppage uint64 }

// Mapper is a demand-paging virtual→physical translator.
type Mapper struct {
	pageBytes uint64
	pageShift uint
	hashShift uint     // 64 - log2(len(table))
	table     []slot   // open-addressed, linear probing
	freePages []uint64 // shuffled physical page numbers
	nextFree  int
	physBytes uint64
}

// New builds a mapper over physBytes of physical memory with the given
// page size. Physical pages are handed out in a seeded random order,
// modeling long-uptime allocator fragmentation.
func New(physBytes, pageBytes uint64, seed uint64) *Mapper {
	if pageBytes < 2 || pageBytes&(pageBytes-1) != 0 {
		// One-byte pages would leave vpage+1 no room in 64 bits.
		panic(fmt.Sprintf("vm: page size %d not a power of two of at least 2", pageBytes))
	}
	if physBytes%pageBytes != 0 {
		panic(fmt.Sprintf("vm: phys size %d not page aligned", physBytes))
	}
	n := physBytes / pageBytes
	free := make([]uint64, n)
	for i := range free {
		free[i] = uint64(i)
	}
	r := rng.New(seed)
	r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	size := uint64(2)
	for size < 2*n {
		size <<= 1
	}
	return &Mapper{
		pageBytes: pageBytes,
		pageShift: uint(bits.TrailingZeros64(pageBytes)),
		hashShift: uint(64 - bits.TrailingZeros64(size)),
		table:     make([]slot, size),
		freePages: free,
		physBytes: physBytes,
	}
}

// PageBytes returns the page size.
func (m *Mapper) PageBytes() uint64 { return m.pageBytes }

// PhysBytes returns the physical memory size.
func (m *Mapper) PhysBytes() uint64 { return m.physBytes }

// MappedPages returns the number of pages allocated so far.
func (m *Mapper) MappedPages() int { return m.nextFree }

// lookup returns the slot holding vpage, or the empty slot where it
// belongs. The table is never more than half full, so the probe ends.
func (m *Mapper) lookup(vpage uint64) *slot {
	mask := uint64(len(m.table) - 1)
	for i := vpage * 0x9E3779B97F4A7C15 >> m.hashShift; ; i = (i + 1) & mask {
		if s := &m.table[i]; s.key == vpage+1 || s.key == 0 {
			return s
		}
	}
}

// Translate maps a virtual address to its physical address, allocating a
// physical page on first touch. A first touch with every physical page
// mapped returns an error wrapping ErrOutOfMemory and maps nothing.
func (m *Mapper) Translate(vaddr uint64) (uint64, error) {
	vpage := vaddr >> m.pageShift
	s := m.lookup(vpage)
	if s.key == 0 {
		if m.nextFree == len(m.freePages) {
			return 0, fmt.Errorf("%w: all %d pages of %d bytes are mapped",
				ErrOutOfMemory, len(m.freePages), m.pageBytes)
		}
		*s = slot{key: vpage + 1, ppage: m.freePages[m.nextFree]}
		m.nextFree++
	}
	return s.ppage<<m.pageShift | vaddr&(m.pageBytes-1), nil
}
