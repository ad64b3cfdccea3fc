package counter

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"rmcc/internal/rng"
	"rmcc/internal/snapshot"
)

// TestCoverageAndArity: an L0 counter block covers Coverage() data blocks,
// and a tree node as many children.
func TestCoverageAndArity(t *testing.T) {
	cases := []struct {
		s        Scheme
		coverage int
	}{
		{SGX, 8},
		{SC64, 64},
		{Morphable, 128},
	}
	for _, c := range cases {
		if got := c.s.Coverage(); got != c.coverage {
			t.Errorf("%v coverage = %d, want %d", c.s, got, c.coverage)
		}
		s := NewStore(c.s, 64<<20)
		if got := s.NodeIndex(c.coverage); s.NodeIndex(c.coverage-1) != 0 || got != 1 {
			t.Errorf("%v: child %d sits in node %d, want 1 (arity %d)", c.s, c.coverage, got, c.coverage)
		}
	}
}

func TestStoreGeometry(t *testing.T) {
	// 1 MiB of data = 16384 blocks; Morphable: 128 L0 blocks; L1: 1 node.
	s := NewStore(Morphable, 1<<20)
	if s.NumDataBlocks() != 16384 {
		t.Fatalf("blocks = %d", s.NumDataBlocks())
	}
	if s.NumL0Blocks() != 128 {
		t.Fatalf("L0 blocks = %d", s.NumL0Blocks())
	}
	if s.Levels() != 1 {
		t.Fatalf("levels = %d, want 1 (root on-chip)", s.Levels())
	}
}

func TestStoreGeometryDeepTree(t *testing.T) {
	// 256 MiB under Morphable: 4M blocks, 32768 L0, 256 L1, 2 L2 -> root.
	s := NewStore(Morphable, 256<<20)
	if s.NumL0Blocks() != 32768 {
		t.Fatalf("L0 = %d", s.NumL0Blocks())
	}
	if s.Levels() != 3 {
		t.Fatalf("levels = %d, want 3", s.Levels())
	}
}

func TestAddressMapDisjoint(t *testing.T) {
	s := NewStore(SC64, 1<<20)
	dataEnd := s.DataBlockAddr(s.NumDataBlocks()-1) + BlockBytes
	if s.NodeAddr(0, 0) < dataEnd {
		t.Fatal("L0 region overlaps data")
	}
	l0End := s.NodeAddr(0, s.NumL0Blocks()-1) + BlockBytes
	if s.Levels() >= 1 && s.NodeAddr(1, 0) < l0End {
		t.Fatal("tree region overlaps L0")
	}
	// Every node's address classifies back to it, level 0 (the L0 counter
	// blocks) included, and the map is dense: data below it and the
	// address past its last node classify to nothing.
	for _, scheme := range []Scheme{SGX, SC64, Morphable} {
		s := NewStore(scheme, 1088<<10)
		next := s.NodeAddr(0, 0)
		for l := 0; l <= s.Levels(); l++ {
			nodes := (s.TreeLevelLen(l) + s.Coverage() - 1) / s.Coverage()
			for k := 0; k < nodes; k++ {
				addr := s.NodeAddr(l, k)
				if gl, gk, ok := s.ClassifyAddr(addr); !ok || gl != l || gk != k || addr != next {
					t.Fatalf("%v: level-%d node %d at %#x (want %#x) classifies to %d, %d, %v", scheme, l, k, addr, next, gl, gk, ok)
				}
				next += BlockBytes
			}
		}
		for _, addr := range []uint64{0, s.DataBlockAddr(s.NumDataBlocks() - 1), next, ^uint64(0)} {
			if l, k, ok := s.ClassifyAddr(addr); ok {
				t.Fatalf("%v: %#x classifies to level %d node %d", scheme, addr, l, k)
			}
		}
	}
}

func TestL0IndexRoundTrip(t *testing.T) {
	s := NewStore(Morphable, 1<<20)
	f := func(raw uint32) bool {
		i := int(raw) % s.NumDataBlocks()
		j := s.NodeIndex(i)
		start, end := s.lv[0].groupRange(j)
		return start <= i && i < end && (end-start) <= s.Coverage()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSGXAlwaysEncodable(t *testing.T) {
	s := NewStore(SGX, 1<<16)
	if !s.CanEncode(0, 0, 1<<40) {
		t.Fatal("SGX rejected a large but sub-56-bit value")
	}
	if s.CanEncode(0, 0, MaxCounter+1) {
		t.Fatal("value above 56-bit ceiling accepted")
	}
}

func TestSC64EncodableRange(t *testing.T) {
	s := NewStore(SC64, 1<<20)
	// Group 0 all at zero: value 127 encodable, 128 not.
	if !s.CanEncode(0, 0, 127) {
		t.Fatal("127 should be encodable with 7-bit minors")
	}
	if s.CanEncode(0, 0, 128) {
		t.Fatal("128 should overflow 7-bit minors")
	}
}

func TestMorphableFormats(t *testing.T) {
	s := NewStore(Morphable, 1<<20)
	// Uniform format: spread <= 7.
	if !s.CanEncode(0, 0, 7) {
		t.Fatal("spread 7 should fit the uniform format")
	}
	// Beyond uniform: ZCC carries one exception up to 127.
	if !s.CanEncode(0, 0, 127) {
		t.Fatal("single 127 exception should fit ZCC")
	}
	if s.CanEncode(0, 0, 128) {
		t.Fatal("128 exceeds both formats")
	}
}

func TestMorphableZCCExceptionLimit(t *testing.T) {
	s := NewStore(Morphable, 1<<20)
	for b := 0; b < 30; b++ {
		s.Set(0, b, 100)
	}
	// 30 exceptions at 100 (base 0): encodable.
	if !s.CanEncode(0, 29, 101) {
		t.Fatal("30 exceptions should be encodable under ZCC")
	}
	// Making a 31st block non-base with spread > uniform must overflow.
	if s.CanEncode(0, 30, 100) {
		t.Fatal("31st ZCC exception unexpectedly encodable")
	}
	// But if all values collapse into a spread <= 7, uniform rescues it.
	s2 := NewStore(Morphable, 1<<20)
	for b := 0; b < 127; b++ {
		s2.Set(0, b, 5)
	}
	if !s2.CanEncode(0, 127, 6) {
		t.Fatal("uniform format should encode spread 6 regardless of exception count")
	}
}

func TestSetDataCounterMonotone(t *testing.T) {
	s := NewStore(SC64, 1<<16)
	s.Set(0, 3, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing update did not panic")
		}
	}()
	s.Set(0, 3, 10)
}

// TestSetDataCounterRejectsUnencodable: an update that leaves its group
// unencodable must relevel instead, so Set refuses it and
// leaves the counter as it was.
func TestSetDataCounterRejectsUnencodable(t *testing.T) {
	mustPanic := func(s *Store, i int, v uint64) {
		t.Helper()
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Fatalf("%v: unencodable update of block %d to %d did not panic", s.Scheme(), i, v)
			}
			if got := s.Counter(0, i); got == v {
				t.Fatalf("%v: refused update of block %d still stored %d", s.Scheme(), i, got)
			}
		}()
		s.Set(0, i, v)
	}
	// SC-64: a spread of 128 over a group of zeros.
	mustPanic(NewStore(SC64, 1<<20), 0, 128)
	// Morphable: 30 exceptions at 100 fill ZCC; a 31st above the uniform
	// format's 7 fits neither format.
	s := NewStore(Morphable, 1<<20)
	for b := 0; b < 30; b++ {
		s.Set(0, b, 100)
	}
	mustPanic(s, 30, 8)
}

func TestRelevelData(t *testing.T) {
	s := NewStore(SC64, 1<<20)
	s.Set(0, 0, 100)
	s.Set(0, 1, 50)
	start, end := s.Relevel(0, 0, 128)
	if gs, ge := s.lv[0].groupRange(0); start != gs || end != ge || end-start != 64 {
		t.Fatalf("relevel touched blocks [%d, %d), want group 0's 64 [%d, %d)", start, end, gs, ge)
	}
	for b := start; b < end; b++ {
		if s.Counter(0, b) != 128 {
			t.Fatalf("block %d = %d after relevel", b, s.Counter(0, b))
		}
	}
	// Neighboring group untouched.
	if s.Counter(0, end) != 0 {
		t.Fatal("relevel leaked into the next group")
	}
}

func TestRelevelRejectsLowTarget(t *testing.T) {
	s := NewStore(SC64, 1<<20)
	s.Set(0, 0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("relevel below max did not panic")
		}
	}()
	s.Relevel(0, 1, 100)
}

func TestObservedMaxTracksUpdates(t *testing.T) {
	s := NewStore(Morphable, 256<<20)
	for l := 0; l <= s.Levels(); l++ {
		s.Set(l, 0, 7)
		if got := s.ObservedMax(l); got != 7 {
			t.Fatalf("level %d observed max = %d after a write of 7", l, got)
		}
		s.Relevel(l, 0, 500)
		if got := s.ObservedMax(l); got != 500 {
			t.Fatalf("level %d observed max = %d after a relevel to 500", l, got)
		}
		s.Corrupt(l, 1, 1000)
		if got := s.ObservedMax(l); got != 500 {
			t.Fatalf("level %d observed max = %d after a corruption, want 500", l, got)
		}
	}
	s.ResetCounters()
	for l := 0; l <= s.Levels(); l++ {
		if got := s.ObservedMax(l); got != 0 {
			t.Fatalf("level %d observed max = %d after a re-key", l, got)
		}
	}
}

func TestTreeEncodeAndRelevel(t *testing.T) {
	s := NewStore(Morphable, 256<<20)
	if !s.CanEncode(1, 0, 127) {
		t.Fatal("tree minor 127 should encode")
	}
	if s.CanEncode(1, 0, 128) {
		t.Fatal("tree minor 128 should overflow")
	}
	s.Set(1, 0, 100)
	if start, end := s.Relevel(1, 0, 200); start != 0 || end != 128 {
		t.Fatalf("tree relevel touched children [%d, %d), want [0, 128)", start, end)
	}
	if s.Counter(1, 5) != 200 {
		t.Fatal("sibling counter not releveled")
	}
}

func TestRandomizeEncodableEverywhere(t *testing.T) {
	for _, scheme := range []Scheme{SGX, SC64, Morphable} {
		s := NewStore(scheme, 4<<20)
		s.Randomize(rng.New(42), DefaultRandomize())
		// Every group must accept a +1 write to its max element (i.e. the
		// randomized state itself is encodable with headroom).
		for j := 0; j < s.NumL0Blocks(); j++ {
			start, end := s.lv[0].groupRange(j)
			maxIdx := start
			for b := start; b < end; b++ {
				if s.Counter(0, b) > s.Counter(0, maxIdx) {
					maxIdx = b
				}
			}
			if !s.CanEncode(0, maxIdx, s.Counter(0, maxIdx)+1) {
				t.Fatalf("%v: group %d not encodable after randomize", scheme, j)
			}
		}
		for l := 0; l <= s.Levels(); l++ {
			if s.ObservedMax(l) == 0 {
				t.Fatalf("%v: level %d observed max not set", scheme, l)
			}
		}
	}
}

func TestRandomizeGroupsDiverge(t *testing.T) {
	s := NewStore(Morphable, 16<<20)
	s.Randomize(rng.New(7), DefaultRandomize())
	bases := make(map[uint64]bool)
	for j := 0; j < s.NumL0Blocks(); j++ {
		start, end := s.lv[0].groupRange(j)
		min := s.Counter(0, start)
		for b := start; b < end; b++ {
			if v := s.Counter(0, b); v < min {
				min = v
			}
		}
		bases[min] = true
	}
	if len(bases) < s.NumL0Blocks()/4 {
		t.Fatalf("group bases not diverse: %d distinct for %d groups", len(bases), s.NumL0Blocks())
	}
}

func BenchmarkCanEncodeMorphable(b *testing.B) {
	s := NewStore(Morphable, 64<<20)
	s.Randomize(rng.New(1), DefaultRandomize())
	for i := 0; i < b.N; i++ {
		blk := (i * 7919) % s.NumDataBlocks()
		s.CanEncode(0, blk, s.Counter(0, blk)+1)
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]Scheme{"sgx": SGX, "sc64": SC64, "morphable": Morphable} {
		if got, err := ParseScheme(name); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScheme("SC-64"); err == nil || err.Error() != `unknown scheme "SC-64"` {
		t.Errorf("ParseScheme(\"SC-64\") error = %v, want unknown scheme", err)
	}
}

// TestWideGroupHeap: a group too wide for 8-bit offsets is held in full on
// its own, not with the whole level. On a SizeSmall Morphable store
// (1 671 168 data counters, 13.4 MB at 8 bytes each), corrupting one
// level-0 counter and restoring the resulting state into a randomized
// store, as a session restore does, each raise the live heap by less than
// 64 KiB, and the restored store reads back the same values and
// EncodeState bytes.
func TestWideGroupHeap(t *testing.T) {
	const blocks = 1_671_168
	const limit = 64 << 10
	src := NewStore(Morphable, blocks*BlockBytes)
	src.Randomize(rng.New(1), DefaultRandomize())
	before := liveHeap()
	src.Corrupt(0, 5, src.Counter(0, 5)+0x5eed)
	if grew := int64(liveHeap()) - int64(before); grew >= limit {
		t.Fatalf("Corrupt raised the live heap by %d bytes, want < %d", grew, limit)
	}
	want := encodeStore(src)
	dst := NewStore(Morphable, blocks*BlockBytes)
	dst.Randomize(rng.New(2), DefaultRandomize())
	dec := snapshot.NewDec(want)
	before = liveHeap()
	if err := dst.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	if grew := int64(liveHeap()) - int64(before); grew >= limit {
		t.Fatalf("DecodeState raised the live heap by %d bytes, want < %d", grew, limit)
	}
	for i := 0; i < blocks; i++ {
		if got, v := dst.Counter(0, i), src.Counter(0, i); got != v {
			t.Fatalf("block %d restored as %d, want %d", i, got, v)
		}
	}
	if !bytes.Equal(encodeStore(dst), want) {
		t.Fatal("restored store's EncodeState differs")
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
