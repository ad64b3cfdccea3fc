package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildRegistry constructs a registry with every instrument kind and drives
// the owned instruments to fixed totals using the given number of
// goroutines. The final exports must not depend on the goroutine count —
// that is the determinism contract the golden test below pins.
func buildRegistry(goroutines int) *Registry {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "operations", L("kind", "read"))
	g := reg.Gauge("test_ratio", "a ratio")
	h := reg.Histogram("test_depth", "chain depth", []uint64{0, 1, 2})
	reg.CounterFunc("test_view_total", "func-backed view", func() uint64 { return 7 })
	reg.GaugeFunc("test_view_ratio", "func-backed gauge", func() float64 { return 0.25 }, L("scope", "all"))

	const total = 1200 // divisible by 1..6 goroutines
	var wg sync.WaitGroup
	per := total / goroutines
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(uint64(i % 5))
			}
		}()
	}
	wg.Wait()
	g.Set(0.5)
	return reg
}

// TestExportsDeterministicAcrossParallelism is the golden test: the
// Prometheus text export must be byte-identical whatever the number of
// goroutines that produced the counts (the CI matrix exercises different
// -parallel settings; exports must not care).
func TestExportsDeterministicAcrossParallelism(t *testing.T) {
	golden := strings.Join([]string{
		`# HELP test_depth chain depth`,
		`# TYPE test_depth histogram`,
		`test_depth_bucket{le="0"} 240`,
		`test_depth_bucket{le="1"} 480`,
		`test_depth_bucket{le="2"} 720`,
		`test_depth_bucket{le="+Inf"} 1200`,
		`test_depth_sum 2400`,
		`test_depth_count 1200`,
		`# HELP test_ops_total operations`,
		`# TYPE test_ops_total counter`,
		`test_ops_total{kind="read"} 1200`,
		`# HELP test_ratio a ratio`,
		`# TYPE test_ratio gauge`,
		`test_ratio 0.5`,
		`# HELP test_view_ratio func-backed gauge`,
		`# TYPE test_view_ratio gauge`,
		`test_view_ratio{scope="all"} 0.25`,
		`# HELP test_view_total func-backed view`,
		`# TYPE test_view_total counter`,
		`test_view_total 7`,
	}, "\n") + "\n"

	for _, goroutines := range []int{1, 2, 4, 6} {
		reg := buildRegistry(goroutines)
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if prom.String() != golden {
			t.Errorf("goroutines=%d: Prometheus export diverged:\ngot:\n%s\nwant:\n%s",
				goroutines, prom.String(), golden)
		}
	}
}

// TestManifestRoundTrip checks write/read symmetry and the config-hash
// stability the CI diff relies on.
func TestManifestRoundTrip(t *testing.T) {
	cfg := map[string]any{"workload": "canneal", "accesses": 1000}
	m := NewManifest("rmccsim", cfg)
	m.Seed = 7
	m.Started = "2026-08-06T00:00:00Z"
	m.WallClockSeconds = 1.5
	m.Headline["ipc"] = 2.25
	m.Notes["driver"] = "lifetime"

	if m.ConfigHash != HashConfig(cfg) {
		t.Error("config hash not reproducible")
	}
	if m.ConfigHash == HashConfig(map[string]any{"workload": "mcf", "accesses": 1000}) {
		t.Error("different configs hashed equal")
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != "rmccsim" || got.Seed != 7 || got.Headline["ipc"] != 2.25 ||
		got.Notes["driver"] != "lifetime" || got.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("round trip mismatch: %+v", got)
	}
}
