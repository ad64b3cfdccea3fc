package counter

import "testing"

// FuzzStoreAgainstReference decodes the fuzzer's bytes into an op stream
// (the first byte picks the scheme and geometry) and drives a Store and the
// plain-value reference through it as TestDifferentialAgainstReference
// does: data and tree updates gated by CanEncode, baseline and
// memo-target relevels, corruptions, re-keys, Randomize, WarmSnap at data
// and tree levels, and snapshot round trips. The op's encodability
// verdicts are compared after every op and all state at the end. The last
// three seeds move groups across the storage forms: a Morphable group takes
// a high-nibble slot by a jump and a read-triggered update, gives it back
// by a relevel, turns wide by a corruption that a round trip restores, and
// a tree node takes and gives back a slot; an SC-64 group takes a slot,
// keeps it through WarmSnap and gives it back by a base lift; a level-2
// tree node takes a slot, gives it back, and turns wide.
func FuzzStoreAgainstReference(f *testing.F) {
	f.Add([]byte{2, 3, 0, 5, 3, 0, 9, 3, 1, 40, 2, 7, 200, 50, 1, 48, 0, 130, 60})
	f.Add([]byte{1, 1, 0, 33, 0, 1, 0, 17, 3, 1, 0, 70, 0, 2, 0, 0, 47, 9, 2, 1, 54})
	f.Add([]byte{0, 2, 1, 2, 50, 7, 0, 0, 62, 255, 3, 2, 57, 1, 1, 4, 1, 45})
	f.Add([]byte{2, 1, 0, 3, 30, 19, 1, 1, 5, 36, 10, 1, 0, 3, 40, 0, 5, 1, 0, 0, 46, 0, 1, 0,
		1, 0, 0, 52, 1, 0, 0, 40, 0, 5, 0, 0, 2, 7, 30, 0, 0, 2, 10, 0, 1})
	f.Add([]byte{1, 1, 0, 7, 30, 25, 1, 0, 7, 61, 0, 0, 0, 9, 0, 0, 1, 0, 100, 1, 0, 7, 28, 39})
	f.Add([]byte{5, 0, 1, 0, 0, 7, 40, 0, 1, 0, 0, 10, 0, 3, 0, 1, 0, 0, 12, 0, 1, 0, 1, 0, 0, 52})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := diffGeometries[int(data[0])%len(diffGeometries)]
		src := &byteSource{b: data[1:]}
		d := newDiffer(t, g.scheme, g.blocks, src)
		for len(src.b) > 0 {
			d.step()
		}
		d.checkAll()
	})
}
