package core

import (
	"rmcc/internal/snapshot"
)

// EncodeState serializes the table's mutable state: live groups (start,
// use count, validity — the memoized AES results themselves are a pure
// function of start values and the key epoch, so DecodeState recomputes
// them through fill instead of shipping 4 KB of pad material), shadow
// groups, MRU values, epoch counters, the watchpoint histogram, the budget
// carry-over, and stats.
func (t *Table) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(len(t.groups)))
	for i := range t.groups {
		g := &t.groups[i]
		e.Bool(g.valid)
		e.U64(g.start)
		e.U64(g.useCount)
	}
	e.U64(uint64(len(t.shadow)))
	for i := range t.shadow {
		s := &t.shadow[i]
		e.Bool(s.valid)
		e.U64(s.start)
		e.U64(s.useCount)
	}
	e.U64(uint64(len(t.mru)))
	for i := range t.mru {
		e.U64(t.mru[i].value)
	}
	e.U64(t.accessesInEpoch)
	e.U64(t.readsInEpoch)
	e.U64(t.overMaxReads)
	e.U64s(t.watchBelow)
	e.F64(t.budget.available)
	// Hardened-insertion RNG state (all zero when the stock policy is
	// active), so randomized insertion resumes bit-identically.
	var rs [4]uint64
	if t.insertRNG != nil {
		rs = t.insertRNG.State()
	}
	for _, v := range rs {
		e.U64(v)
	}
	e.Binary(&t.stats)
}

// DecodeState restores state written by EncodeState into a table built with
// the identical configuration and fill/sysMax providers. The engine must
// restore its key epoch (and re-derive its OTP unit) before calling this:
// installGroup and the MRU refill recompute every memoized result through
// fill, which closes over the unit.
func (t *Table) DecodeState(d *snapshot.Dec) error {
	if n := d.U64(); n != uint64(len(t.groups)) {
		if err := d.Err(); err != nil {
			return err
		}
		return d.Failf("memo table has %d groups, want %d", n, len(t.groups))
	}
	for i := range t.groups {
		valid := d.Bool()
		start := d.U64()
		useCount := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if valid {
			t.installGroup(i, start)
			t.groups[i].useCount = useCount
		} else {
			t.groups[i].valid = false
		}
	}
	ns := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if ns > shadowGroups {
		return d.Failf("shadow list length %d, cap %d", ns, shadowGroups)
	}
	t.shadow = t.shadow[:0]
	for i := uint64(0); i < ns; i++ {
		s := shadowGroup{}
		s.valid = d.Bool()
		s.start = d.U64()
		s.useCount = d.U64()
		t.shadow = append(t.shadow, s)
	}
	nm := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if nm > mruSize {
		return d.Failf("MRU list length %d, cap %d", nm, mruSize)
	}
	t.mru = t.mru[:0]
	for i := uint64(0); i < nm; i++ {
		v := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		t.mru = append(t.mru, mruEntry{value: v, result: t.fill(v)})
	}
	t.accessesInEpoch = d.U64()
	t.readsInEpoch = d.U64()
	t.overMaxReads = d.U64()
	// Rebuild maxLive and the watchpoint ladder from the restored groups,
	// then overlay the epoch's histogram (recompute zeroes it).
	t.recomputeWatchpoints()
	d.U64sInto(t.watchBelow)
	t.budget.available = d.F64()
	var rs [4]uint64
	for i := range rs {
		rs[i] = d.U64()
	}
	if t.insertRNG != nil {
		t.insertRNG.SetState(rs)
	}
	d.Binary(&t.stats)
	if err := d.Err(); err != nil {
		return err
	}
	// Every servable entry was just recomputed through fill: groups are
	// reinstalled or left invalid (and only installGroup revalidates one),
	// and the MRU list was refilled.
	t.poisoned = false
	return nil
}
