package vm

import (
	"cmp"
	"slices"

	"rmcc/internal/snapshot"
)

// EncodeState serializes the mapper's demand-paging state: the allocation
// cursor and the vpage→ppage table in sorted vpage order (table slot order
// must not leak into the snapshot bytes — restored-then-saved state has to
// be byte-identical to the uninterrupted run's). The shuffled free-page
// list itself is not serialized: it is a pure function of (physBytes,
// pageBytes, seed), which the restoring side rebuilds, and the config-hash
// check upstream guarantees those match.
func (m *Mapper) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(m.nextFree))
	mapped := make([]slot, 0, m.nextFree)
	for _, s := range m.table {
		if s.key != 0 {
			mapped = append(mapped, s)
		}
	}
	slices.SortFunc(mapped, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	e.U64(uint64(len(mapped)))
	for _, s := range mapped {
		e.U64(s.key - 1)
		e.U64(s.ppage)
	}
}

// DecodeState restores state written by EncodeState into a mapper built
// with the identical geometry and seed. It refuses a table the mapper
// never produces: vpages out of ascending order or beyond what a 64-bit
// address has, and ppages other than the first nextFree pages of the free
// list, each once (allocation is sequential and nothing is unmapped).
func (m *Mapper) DecodeState(d *snapshot.Dec) error {
	nextFree := d.U64()
	n := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if nextFree > uint64(len(m.freePages)) {
		return d.Failf("vm allocation cursor %d beyond %d pages", nextFree, len(m.freePages))
	}
	if n != nextFree || n > uint64(d.Remaining()/16) {
		// Every allocated free-list page maps exactly one vpage.
		return d.Failf("vm table length %d with cursor %d", n, nextFree)
	}
	// unmapped[p] marks the allocated pages no entry has claimed yet.
	unmapped := make([]bool, len(m.freePages))
	for _, p := range m.freePages[:nextFree] {
		unmapped[p] = true
	}
	clear(m.table)
	maxVPage := ^uint64(0) >> m.pageShift
	var prev uint64
	for i := uint64(0); i < n; i++ {
		vpage, ppage := d.U64(), d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if vpage > maxVPage || i > 0 && vpage <= prev {
			return d.Failf("vm entry %d: vpage %#x after %#x", i, vpage, prev)
		}
		if ppage >= uint64(len(unmapped)) || !unmapped[ppage] {
			return d.Failf("vm entry %d: vpage %#x maps ppage %d, not an unclaimed allocated page", i, vpage, ppage)
		}
		unmapped[ppage] = false
		*m.lookup(vpage) = slot{key: vpage + 1, ppage: ppage}
		prev = vpage
	}
	m.nextFree = int(nextFree)
	return nil
}
