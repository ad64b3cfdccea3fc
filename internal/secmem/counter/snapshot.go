package counter

import "rmcc/internal/snapshot"

// EncodeState serializes all counter ground truth: every data counter (as
// a length-prefixed uint64 per block, whatever form the store holds it
// in), every tree level, the observed-max register, and the cumulative
// overflow tallies. Geometry (block counts, level count) is derived from
// the scheme and footprint at construction, so only the values travel;
// DecodeState enforces the lengths against the store it restores into.
func (s *Store) EncodeState(e *snapshot.Enc) {
	e.U64(uint64(s.nBlocks))
	for i := 0; i < s.nBlocks; i++ {
		e.U64(s.DataCounter(i))
	}
	e.U64(uint64(s.Levels()))
	for l := 1; l <= s.Levels(); l++ {
		e.U64s(s.tree[l])
	}
	e.U64(s.observedMax)
	e.U64s(s.Overflows)
}

// DecodeState restores state written by EncodeState into a store built with
// the identical scheme and footprint. It writes counters directly — the
// monotonicity guard on SetDataCounter/SetTreeCounter compares against
// live state, which does not apply when replacing the whole image with a
// previously valid one — and re-encodes each data-counter group.
func (s *Store) DecodeState(d *snapshot.Dec) error {
	if n := d.U64(); d.Err() == nil && n != uint64(s.nBlocks) {
		return d.Failf("uint64 slice length %d, want %d", n, s.nBlocks)
	}
	var buf [128]uint64
	for j := 0; j < s.NumL0Blocks() && d.Err() == nil; j++ {
		start, end := s.GroupRange(j)
		vals := buf[:end-start]
		for k := range vals {
			vals[k] = d.U64()
		}
		s.pack(j, vals)
	}
	if levels := d.U64(); levels != uint64(s.Levels()) {
		if err := d.Err(); err != nil {
			return err
		}
		return d.Failf("counter tree has %d levels, want %d", levels, s.Levels())
	}
	for l := 1; l <= s.Levels(); l++ {
		d.U64sInto(s.tree[l])
	}
	s.observedMax = d.U64()
	d.U64sInto(s.Overflows)
	return d.Err()
}
