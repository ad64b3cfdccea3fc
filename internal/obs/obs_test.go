package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one registry from many goroutines — owned
// instruments updating, fresh series registering, and exports being cut
// concurrently — and checks the final totals. Run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "shared counter")
	g := reg.Gauge("g", "shared gauge")
	h := reg.Histogram("h", "shared histogram", []uint64{0, 10, 20, 30})

	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker also registers its own series mid-flight.
			reg.CounterFunc("worker_total", "per-worker series",
				func() uint64 { return perWorker }, L("worker", string(rune('a'+w))))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(i % 40))
				if i%1000 == 0 {
					var sb strings.Builder
					if err := reg.WritePrometheus(&sb); err != nil {
						t.Errorf("concurrent export: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	pm, err := ParsePromText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if v, ok := pm.Value("worker_total", L("worker", string(rune('a'+w)))); !ok || v != perWorker {
			t.Errorf("worker_total{worker=%q} = %v (ok=%v), want %d", string(rune('a'+w)), v, ok, perWorker)
		}
	}
}

// TestRegistryDuplicatePanics pins the wiring-bug guard: same (name,
// labels) twice panics, same name with different labels does not.
func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "", L("k", "v"))
	reg.Counter("dup_total", "", L("k", "other")) // distinct labels: fine
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Counter("dup_total", "", L("k", "v"))
}

// TestHistogramBucketEdges pins the le (inclusive upper bound) semantics on
// exact boundary values, underflow into the first bucket, and overflow into
// the implicit +Inf bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]uint64{10, 20, 30})
	for _, v := range []uint64{0, 10, 11, 20, 21, 30, 31, 1 << 40} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=10: {0,10}; le=20: +{11,20}; le=30: +{21,30}; +Inf: +{31,1<<40}.
	want := []uint64{2, 4, 6}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[le=%d] = %d, want %d", bounds[i], cum[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	wantSum := uint64(0 + 10 + 11 + 20 + 21 + 30 + 31 + (1 << 40))
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]uint64{{10, 10}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestBucketLayouts(t *testing.T) {
	if got := Pow2Buckets(2, 5); len(got) != 4 || got[0] != 4 || got[3] != 32 {
		t.Errorf("Pow2Buckets(2,5) = %v", got)
	}
}

// TestNilInstrumentsAreNoOps pins the zero-overhead-when-disabled contract:
// every instrument method on a nil receiver is a safe no-op.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(7)
	tr.Emit(EvMemoHit, 1, 2, 3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		tr.Total() != 0 || tr.Len() != 0 || tr.Cap() != 0 || tr.CountByKind(EvMemoHit) != 0 {
		t.Fatal("nil instrument reported non-zero state")
	}
	if b, c := h.Buckets(); b != nil || c != nil {
		t.Fatal("nil histogram returned buckets")
	}
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
}
