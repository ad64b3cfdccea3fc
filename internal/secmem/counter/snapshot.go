package counter

import "rmcc/internal/snapshot"

// EncodeState serializes all counter ground truth: every level's counters
// (as a length-prefixed uint64 per counter, whatever form the store holds
// them in: low nibbles alone, with a high-nibble slot, wide, or SGX's full
// width), then the per-level observed-max registers, level 0 first.
// Geometry (block counts, level count) is derived from the scheme and
// footprint at construction, so only the values travel; DecodeState
// enforces the lengths against the store it restores into.
func (s *Store) EncodeState(e *snapshot.Enc) {
	s.lv[0].encode(e)
	e.U64(uint64(s.Levels()))
	for l := 1; l <= s.Levels(); l++ {
		s.lv[l].encode(e)
	}
	e.U64s(s.observed)
}

// DecodeState restores state written by EncodeState into a store built with
// the identical scheme and footprint. It writes counters directly — the
// monotonicity guard on Set compares against live state, which does not
// apply when replacing the whole image with a previously valid one — and
// re-encodes each group, taking a slot only for a group that needs one.
func (s *Store) DecodeState(d *snapshot.Dec) error {
	if err := s.lv[0].decode(d); err != nil {
		return err
	}
	if levels := d.U64(); levels != uint64(s.Levels()) {
		if err := d.Err(); err != nil {
			return err
		}
		return d.Failf("counter tree has %d levels, want %d", levels, s.Levels())
	}
	for l := 1; l <= s.Levels(); l++ {
		if err := s.lv[l].decode(d); err != nil {
			return err
		}
	}
	d.U64sInto(s.observed)
	return d.Err()
}

func (lv *level) encode(e *snapshot.Enc) {
	e.U64(uint64(lv.n))
	var buf [128]uint64
	for j := 0; j < lv.numGroups(); j++ {
		for _, v := range lv.values(j, buf[:]) {
			e.U64(v)
		}
	}
}

func (lv *level) decode(d *snapshot.Dec) error {
	if n := d.U64(); d.Err() == nil && n != uint64(lv.n) {
		return d.Failf("uint64 slice length %d, want %d", n, lv.n)
	}
	lv.reset()
	var buf [128]uint64
	for j := 0; j < lv.numGroups() && d.Err() == nil; j++ {
		start, end := lv.groupRange(j)
		vals := buf[:end-start]
		for k := range vals {
			vals[k] = d.U64()
		}
		lv.pack(j, vals)
	}
	lv.hiSlots.trim()
	lv.wideSlots.trim()
	return d.Err()
}
