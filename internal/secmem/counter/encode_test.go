package counter

import (
	"testing"
	"testing/quick"

	"rmcc/internal/rng"
)

func TestEncodeDecodeSGX(t *testing.T) {
	vals := []uint64{0, 1, MaxCounter, 42, 7, 1 << 40, 3, 9}
	block, f, err := EncodeBlock(SGX, vals)
	if err != nil || f != FormatSGX {
		t.Fatalf("encode: %v %v", f, err)
	}
	got, _, err := DecodeBlock(SGX, block, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %d != %d", i, got[i], vals[i])
		}
	}
}

func TestEncodeSC64RoundTripAndOverflow(t *testing.T) {
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = 100000 + uint64(i)%127
	}
	block, f, err := EncodeBlock(SC64, vals)
	if err != nil || f != FormatSC64 {
		t.Fatalf("encode: %v %v", f, err)
	}
	got, _, err := DecodeBlock(SC64, block, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %d != %d", i, got[i], vals[i])
		}
	}
	vals[5] = vals[0] + 128 // beyond 7-bit minors
	if _, _, err := EncodeBlock(SC64, vals); err == nil {
		t.Fatal("overflow spread encoded")
	}
}

func TestEncodeMorphableFormatSelection(t *testing.T) {
	uniform := make([]uint64, 128)
	for i := range uniform {
		uniform[i] = 5000 + uint64(i)%8
	}
	_, f, err := EncodeBlock(Morphable, uniform)
	if err != nil || f != FormatMorphUniform {
		t.Fatalf("uniform: %v %v", f, err)
	}
	zcc := make([]uint64, 128)
	for i := range zcc {
		zcc[i] = 9000
	}
	for i := 0; i < 30; i++ {
		zcc[i*4] = 9000 + 20 + uint64(i)
	}
	_, f, err = EncodeBlock(Morphable, zcc)
	if err != nil || f != FormatMorphZCC {
		t.Fatalf("zcc: %v %v", f, err)
	}
	zcc[124] = 9001 // 31st exception with spread > uniform
	if _, _, err := EncodeBlock(Morphable, zcc); err == nil {
		t.Fatal("31 exceptions encoded")
	}
}

func TestEncodeMorphableRoundTrips(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		vals := make([]uint64, 128)
		base := r.Uint64n(1 << 40)
		kind := r.Intn(2)
		for i := range vals {
			vals[i] = base
			if kind == 0 {
				vals[i] += r.Uint64n(8)
			}
		}
		if kind == 1 {
			for k := 0; k < int(r.Uint64n(31)); k++ {
				vals[r.Intn(128)] = base + 1 + r.Uint64n(127)
			}
		}
		block, _, err := EncodeBlock(Morphable, vals)
		if err != nil {
			// ZCC may legitimately exceed 30 exceptions; skip those.
			continue
		}
		got, _, err := DecodeBlock(Morphable, block, 128)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("trial %d value %d: %d != %d", trial, i, got[i], vals[i])
			}
		}
	}
}

// TestEncodeMatchesCanEncode: the wire-format capacity and the simulator's
// encodability predicate must agree — EncodeBlock succeeds exactly when
// CanEncode accepts the group state.
func TestEncodeMatchesCanEncode(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := NewStore(Morphable, 128*64)
		base := r.Uint64n(1 << 30)
		// Build an arbitrary group state via relevel + raises.
		s.Relevel(0, 0, base+1)
		for k := 0; k < int(r.Uint64n(40)); k++ {
			i := r.Intn(128)
			nv := s.Counter(0, i) + 1 + r.Uint64n(10)
			if s.CanEncode(0, i, nv) {
				s.Set(0, i, nv)
			}
		}
		vals := make([]uint64, 128)
		for i := range vals {
			vals[i] = s.Counter(0, i)
		}
		_, _, err := EncodeBlock(Morphable, vals)
		return err == nil // CanEncode gated every change
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var junk [BlockBytes]byte
	for i := range junk {
		junk[i] = 0xff
	}
	// Morphable format tag 3 with count 31 > 30 must be rejected.
	if _, _, err := DecodeBlock(Morphable, junk, 128); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestEncodeSizeLimits(t *testing.T) {
	if _, _, err := EncodeBlock(SGX, make([]uint64, 9)); err == nil {
		t.Fatal("9 counters in an SGX block")
	}
	if _, _, err := EncodeBlock(SC64, make([]uint64, 65)); err == nil {
		t.Fatal("65 counters in an SC-64 block")
	}
	if _, _, err := EncodeBlock(Morphable, make([]uint64, 129)); err == nil {
		t.Fatal("129 counters in a Morphable block")
	}
}

func BenchmarkDecodeMorphableZCC(b *testing.B) {
	vals := make([]uint64, 128)
	for i := range vals {
		vals[i] = 5000
	}
	for i := 0; i < 25; i++ {
		vals[i*5] = 5000 + uint64(i) + 1
	}
	block, _, err := EncodeBlock(Morphable, vals)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeBlock(Morphable, block, 128)
	}
}
