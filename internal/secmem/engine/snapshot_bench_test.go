package engine

import (
	"testing"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/snapshot"
)

// warmEngine1M drives one million mixed accesses through a 64 MB RMCC
// controller — the "warm 1M-access engine" the snapshot latency budget is
// stated against.
func warmEngine1M(b *testing.B) *MC {
	b.Helper()
	cfg := DefaultConfig(RMCC, counter.Morphable, 64<<20)
	mc := New(cfg)
	blocks := uint64(cfg.MemBytes / counter.BlockBytes)
	// Strided mix: enough spatial reuse to exercise the counter cache,
	// enough spread to touch many counter groups.
	for i := uint64(0); i < 1_000_000; i++ {
		addr := ((i * 2654435761) % blocks) * counter.BlockBytes
		if i%3 == 0 {
			mc.Write(addr)
		} else {
			mc.Read(addr)
		}
		mc.OnEpochAccess()
	}
	return mc
}

func BenchmarkEngineSnapshotEncodeWarm1M(b *testing.B) {
	mc := warmEngine1M(b)
	var e snapshot.Enc
	mc.EncodeState(&e)
	b.SetBytes(int64(len(e.Data())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		mc.EncodeState(&e)
	}
}

func BenchmarkEngineSnapshotDecodeWarm1M(b *testing.B) {
	mc := warmEngine1M(b)
	payload := encodeMC(mc)
	dst := New(mc.Config())
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeMC(dst, payload); err != nil {
			b.Fatal(err)
		}
	}
}
