package cache

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"rmcc/internal/rng"
	"rmcc/internal/snapshot"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 512, Ways: 2, LineBytes: 48},        // non power-of-two line
		{SizeBytes: 512, Ways: 0, LineBytes: 64},        // zero ways
		{SizeBytes: 500, Ways: 2, LineBytes: 64},        // not divisible
		{SizeBytes: 64 * 2 * 3, Ways: 2, LineBytes: 64}, // 3 sets
		{SizeBytes: 4, Ways: 4, LineBytes: 1},           // one set of 1-byte lines
		{SizeBytes: 8, Ways: 4, LineBytes: 2},           // one set of 2-byte lines
		{SizeBytes: 8, Ways: 4, LineBytes: 1},           // two sets of 1-byte lines
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v unexpectedly valid", i, cfg)
		}
	}
	for _, cfg := range []Config{
		{SizeBytes: 8, Ways: 2, LineBytes: 4}, // one set of 4-byte lines
		{SizeBytes: 8, Ways: 2, LineBytes: 1}, // four sets of 1-byte lines
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v indexes 4 bytes but is invalid: %v", cfg, err)
		}
	}
	good := Config{SizeBytes: 128 << 10, Ways: 32, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("counter-cache config invalid: %v", err)
	}
	if got := good.Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := small()
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1004, false); !r.Hit {
		t.Fatal("same-line offset missed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to set 0 (set stride = 4 sets * 64B = 256B).
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU, b is LRU
	r := c.Access(d, false)
	if r.Hit || !r.Evicted {
		t.Fatalf("expected eviction, got %+v", r)
	}
	if r.VictimAddr != b {
		t.Fatalf("victim = %#x, want %#x (LRU)", r.VictimAddr, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(d) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small()
	c.Access(0x0000, true) // dirty
	c.Access(0x0100, false)
	r := c.Access(0x0200, false) // evicts 0x0000
	if !r.Evicted || !r.Writeback || r.VictimAddr != 0 {
		t.Fatalf("expected dirty writeback of line 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small()
	c.Access(0x0000, false)
	c.Access(0x0100, false)
	r := c.Access(0x0200, false)
	if !r.Evicted || r.Writeback {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small()
	c.Access(0x0000, false)
	c.Access(0x0000, true) // hit, now dirty
	c.Access(0x0100, false)
	r := c.Access(0x0200, false)
	if !r.Writeback {
		t.Fatal("dirty bit from write hit lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(0x0000, true)
	present, dirty := c.Invalidate(0x0000)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Probe(0x0000) {
		t.Fatal("line still resident")
	}
	present, _ = c.Invalidate(0x0000)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := New(Config{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64})
	r := rng.New(17)
	// Fill way beyond capacity and verify every victim address is one we
	// inserted, line-aligned.
	inserted := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		addr := r.Uint64() & 0xfffffff
		inserted[addr&^63] = true
		res := c.Access(addr, false)
		if res.Evicted {
			if res.VictimAddr%64 != 0 {
				t.Fatalf("victim %#x not line aligned", res.VictimAddr)
			}
			if !inserted[res.VictimAddr] {
				t.Fatalf("victim %#x never inserted", res.VictimAddr)
			}
		}
	}
}

func TestResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(Config{SizeBytes: 4096, Ways: 4, LineBytes: 64})
		r := rng.New(seed)
		for i := 0; i < 2000; i++ {
			c.Access(r.Uint64()&0xffffff, r.Uint64()&1 == 0)
		}
		return c.ResidentLines() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsNoEvictions(t *testing.T) {
	c := New(Config{SizeBytes: 8192, Ways: 8, LineBytes: 64})
	// 128 lines capacity; access 64 lines repeatedly.
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 64; i++ {
			c.Access(i*64, false)
		}
	}
	s := c.Stats()
	if s.Misses != 64 {
		t.Fatalf("misses = %d, want 64 cold misses only", s.Misses)
	}
	if s.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", s.Evictions)
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	if c.Stats().MissRate() != 0 {
		t.Fatal("empty cache miss rate not 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	if mr := c.Stats().MissRate(); mr != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", mr)
	}
}

// TestDecodeStateRejectsImpossibleLines: a line state Access/Invalidate
// never produce is refused as corrupt rather than silently reinterpreted.
func TestDecodeStateRejectsImpossibleLines(t *testing.T) {
	c := small()
	c.Access(0x0000, true)
	c.Access(0x0100, false)
	var e snapshot.Enc
	c.EncodeState(&e)
	good := e.Data()
	if err := small().DecodeState(snapshot.NewDec(good)); err != nil {
		t.Fatalf("own state refused: %v", err)
	}
	// Header: sets, ways, 4 counters; then one word per way, set by set.
	// Set 0 holds the two accesses above, most recent first: tag 1 clean
	// (word 4), then tag 0 dirty (word 3). Set 1 is empty.
	const set0, set1 = 6 * 8, 8 * 8
	word := func(off int, k uint64) func(b []byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], k) }
	}
	const topTag = 1<<56 - 1 // 64 address bits less 6 line and 2 set bits
	ok := append([]byte(nil), good...)
	word(set1, (topTag+1)<<1)(ok)
	if err := small().DecodeState(snapshot.NewDec(ok)); err != nil {
		t.Fatalf("a line with the top tag refused: %v", err)
	}
	for name, mutate := range map[string]func(b []byte){
		"valid behind invalid": word(set0, 0),
		"valid in a later way": word(set1+8, 4),
		"word of 1":            word(set1, 1),
		"all-ones word":        word(set1, ^uint64(0)),
		"tag past 64 bits":     word(set1, (topTag+2)<<1),
		"one tag twice":        word(set0+8, 4),
		"tag dirty and clean":  word(set0+8, 5),
	} {
		b := append([]byte(nil), good...)
		mutate(b)
		if err := small().DecodeState(snapshot.NewDec(b)); !errors.Is(err, snapshot.ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// BenchmarkAccess runs the counter-cache geometry over a seeded stream
// drawn from 1.5x its capacity in lines, so about two thirds of the
// accesses hit and the rest evict a victim.
func BenchmarkAccess(b *testing.B) {
	c := New(Config{SizeBytes: 128 << 10, Ways: 32, LineBytes: 64})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(3<<10) << 6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], i&7 == 0)
	}
}
