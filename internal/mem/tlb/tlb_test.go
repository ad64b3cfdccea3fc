package tlb

import (
	"testing"

	"rmcc/internal/rng"
)

func TestHitWithinPage(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, PageBytes: 4096})
	if tl.Lookup(0x1000) {
		t.Fatal("cold lookup hit")
	}
	if !tl.Lookup(0x1abc) {
		t.Fatal("same-page lookup missed")
	}
	if tl.Lookup(0x2000) {
		t.Fatal("next page hit without fill")
	}
}

func TestCapacityMisses(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, PageBytes: 4096})
	// Touch 64 distinct pages twice; 16-entry TLB must miss on both rounds.
	for round := 0; round < 2; round++ {
		for p := uint64(0); p < 64; p++ {
			tl.Lookup(p * 4096)
		}
	}
	if hits := tl.Stats().Hits; hits != 0 {
		t.Fatalf("unexpected hits %d with working set 4x capacity", hits)
	}
}

func TestHugePagesReduceMisses(t *testing.T) {
	// The Figure-4 effect in miniature: the same footprint, 4 KB vs 2 MB
	// pages; the huge-page TLB should have a dramatically lower miss rate.
	small := New(Config{Entries: 64, Ways: 4, PageBytes: 4 << 10})
	huge := New(Config{Entries: 64, Ways: 4, PageBytes: 2 << 20})
	r := rng.New(5)
	// Footprint 64 MiB: 32 huge pages fit in the 64-entry TLB, while the
	// 16384 4 KiB pages overwhelm it — the Figure-4 regime.
	const footprint = 64 << 20
	for i := 0; i < 200000; i++ {
		addr := r.Uint64n(footprint)
		small.Lookup(addr)
		huge.Lookup(addr)
	}
	small.ResetStats()
	huge.ResetStats()
	for i := 0; i < 200000; i++ {
		addr := r.Uint64n(footprint)
		small.Lookup(addr)
		huge.Lookup(addr)
	}
	sm, hm := small.Stats().MissRate(), huge.Stats().MissRate()
	if hm >= sm/4 {
		t.Fatalf("huge pages not helping: 4KB miss %.3f vs 2MB miss %.3f", sm, hm)
	}
}

func TestResetStats(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 4, PageBytes: 4096})
	tl.Lookup(0)
	tl.ResetStats()
	if tl.Stats().Accesses() != 0 {
		t.Fatal("stats not reset")
	}
	if !tl.Lookup(0) {
		t.Fatal("reset flushed entries")
	}
}
