package vm

import (
	"errors"
	"testing"

	"rmcc/internal/rng"
)

// translate is Translate for tests whose memory never runs out.
func translate(t *testing.T, m *Mapper, vaddr uint64) uint64 {
	t.Helper()
	paddr, err := m.Translate(vaddr)
	if err != nil {
		t.Fatalf("Translate(%#x): %v", vaddr, err)
	}
	return paddr
}

func TestTranslateStableAndAligned(t *testing.T) {
	m := New(64<<20, 2<<20, 1)
	a := translate(t, m, 0x12345678)
	b := translate(t, m, 0x12345678)
	if a != b {
		t.Fatal("translation not stable")
	}
	if a&(2<<20-1) != 0x12345678&(2<<20-1) {
		t.Fatal("page offset not preserved")
	}
}

func TestDistinctPagesDistinctFrames(t *testing.T) {
	m := New(64<<20, 4096, 2)
	seen := make(map[uint64]bool)
	for v := uint64(0); v < 1000; v++ {
		p := translate(t, m, v*4096) >> 12
		if seen[p] {
			t.Fatalf("frame %d reused", p)
		}
		seen[p] = true
	}
	if m.MappedPages() != 1000 {
		t.Fatalf("mapped = %d", m.MappedPages())
	}
}

func TestRandomPlacement(t *testing.T) {
	m := New(64<<20, 4096, 3)
	sequentialPairs := 0
	prev := translate(t, m, 0) >> 12
	for v := uint64(1); v < 512; v++ {
		cur := translate(t, m, v*4096) >> 12
		if cur == prev+1 {
			sequentialPairs++
		}
		prev = cur
	}
	// With shuffled frames, adjacent virtual pages should almost never
	// land on adjacent physical frames.
	if sequentialPairs > 16 {
		t.Fatalf("placement too sequential: %d adjacent pairs", sequentialPairs)
	}
}

// TestExhaustionReturnsError: a first touch past the last physical page
// is an ErrOutOfMemory that maps nothing, while mapped pages still
// translate as before.
func TestExhaustionReturnsError(t *testing.T) {
	m := New(8192, 4096, 4)
	a := translate(t, m, 0)
	b := translate(t, m, 4096+5)
	for i := 0; i < 2; i++ {
		if _, err := m.Translate(8192); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("third page: err = %v, want ErrOutOfMemory", err)
		}
	}
	if m.MappedPages() != 2 {
		t.Fatalf("mapped = %d after exhaustion, want 2", m.MappedPages())
	}
	if translate(t, m, 7) != a+7 || translate(t, m, 4096+5) != b {
		t.Fatal("mapped pages moved after exhaustion")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	m1 := New(32<<20, 4096, 77)
	m2 := New(32<<20, 4096, 77)
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		v := r.Uint64n(16 << 20)
		if translate(t, m1, v) != translate(t, m2, v) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, page := range []uint64{0, 1, 3000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("page size %d: expected panic", page)
				}
			}()
			New(1<<20, page, 1)
		}()
	}
}
