package engine

import (
	"testing"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
)

// BenchmarkEngineReadHit measures the counter-cache-hit read path, the
// engine call dominating warm sweeps. The scratch-buffer reuse keeps it
// allocation-free.
func BenchmarkEngineReadHit(b *testing.B) {
	mc := testMC(b, RMCC, counter.Morphable, 64, nil)
	mc.Read(0x100000) // warm the counter block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Read(0x100000 + uint64(i&63)*64)
	}
}

// BenchmarkEngineReadHitObserved is BenchmarkEngineReadHit with an event
// tracer attached — the acceptance bar for the observability layer is
// that this stays 0 B/op and within noise of the unobserved benchmark.
func BenchmarkEngineReadHitObserved(b *testing.B) {
	mc := testMC(b, RMCC, counter.Morphable, 64, nil)
	mc.SetTracer(obs.NewTracer(obs.DefaultTracerCap))
	mc.Read(0x100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Read(0x100000 + uint64(i&63)*64)
	}
}

// BenchmarkEngineReadMiss measures the counter-cache-miss read path (chain
// walk + memo lookup) by striding across distinct counter-block groups so
// the cache thrashes.
func BenchmarkEngineReadMiss(b *testing.B) {
	mc := testMC(b, RMCC, counter.Morphable, 256, func(c *Config) { c.CounterCacheBytes = 8 << 10 })
	// One Morphable L0 block covers 8 KiB of data; stride past it each
	// access and wrap well inside the 256 MiB space.
	const stride = 8 << 10
	const span = 128 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Read(uint64(i) * stride % span)
	}
}

// BenchmarkEngineWrite measures the write path (counter bump, re-encrypt,
// writeback accounting) with a warm counter cache.
func BenchmarkEngineWrite(b *testing.B) {
	mc := testMC(b, RMCC, counter.Morphable, 64, nil)
	mc.Write(0x200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Write(0x200000 + uint64(i&63)*64)
	}
}
