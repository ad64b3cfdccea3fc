package workload

import (
	"testing"
)

// collect gathers up to n accesses from a workload.
func collect(w Workload, seed uint64, n int) []Access {
	out := make([]Access, 0, n)
	w.Run(seed, func(a Access) bool {
		out = append(out, a)
		return len(out) < n
	})
	return out
}

func TestSuiteHasAllPaperWorkloads(t *testing.T) {
	ws := Suite(SizeTest, 1)
	if len(ws) != len(Names()) {
		t.Fatalf("suite size = %d, want %d (the eleven plus registered extras)",
			len(ws), len(Names()))
	}
	names := map[string]bool{}
	for i, w := range ws {
		names[w.Name()] = true
		if i < len(PaperNames()) && w.Name() != PaperNames()[i] {
			t.Fatalf("suite[%d] = %q, want paper order %q", i, w.Name(), PaperNames()[i])
		}
	}
	for _, want := range Names() {
		if !names[want] {
			t.Fatalf("missing workload %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName(SizeTest, 1, "canneal")
	if !ok || w.Name() != "canneal" {
		t.Fatal("ByName failed for canneal")
	}
	if _, ok := ByName(SizeTest, 1, "nope"); ok {
		t.Fatal("ByName found a nonexistent workload")
	}
}

func TestEveryWorkloadProducesStream(t *testing.T) {
	for _, w := range Suite(SizeTest, 2) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			const n = 50000
			accs := collect(w, 3, n)
			if len(accs) != n {
				t.Fatalf("%s produced only %d accesses", w.Name(), len(accs))
			}
			loads, stores := 0, 0
			fp := w.FootprintBytes()
			for _, a := range accs {
				if a.Addr >= fp {
					t.Fatalf("%s: access %#x beyond footprint %#x", w.Name(), a.Addr, fp)
				}
				if a.Write {
					stores++
				} else {
					loads++
				}
			}
			if loads == 0 {
				t.Fatalf("%s: no loads", w.Name())
			}
			if stores == 0 {
				t.Fatalf("%s: no stores", w.Name())
			}
		})
	}
}

func TestDeterministicStreams(t *testing.T) {
	for _, name := range []string{"pageRank", "BFS", "canneal", "mcf"} {
		w1, _ := ByName(SizeTest, 5, name)
		w2, _ := ByName(SizeTest, 5, name)
		a1 := collect(w1, 9, 20000)
		a2 := collect(w2, 9, 20000)
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("%s diverged at access %d", name, i)
			}
		}
	}
}

func TestStopIsPrompt(t *testing.T) {
	// After the sink returns false, the workload must return without
	// delivering more accesses.
	for _, w := range Suite(SizeTest, 4) {
		count := 0
		w.Run(1, func(Access) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Fatalf("%s: delivered %d accesses after stop at 10", w.Name(), count)
		}
	}
}

func TestIrregularityOrdering(t *testing.T) {
	// The paper's premise (Figure 3): canneal is far more irregular than
	// mcf. Measure unique 8 KiB regions touched per access as a proxy.
	uniqueRegions := func(name string) float64 {
		w, _ := ByName(SizeSmall, 3, name)
		regions := map[uint64]bool{}
		const n = 200000
		cnt := 0
		w.Run(5, func(a Access) bool {
			regions[a.Addr>>13] = true
			cnt++
			return cnt < n
		})
		return float64(len(regions)) / float64(cnt)
	}
	canneal := uniqueRegions("canneal")
	mcf := uniqueRegions("mcf")
	if canneal <= mcf*2 {
		t.Fatalf("canneal irregularity %.4f not clearly above mcf %.4f", canneal, mcf)
	}
}

func TestFootprintsExceedLLCAtFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size suite construction is slow")
	}
	paper := map[string]bool{}
	for _, n := range PaperNames() {
		paper[n] = true
	}
	for _, w := range Suite(SizeFull, 1) {
		if !paper[w.Name()] {
			continue // extras (sidechannel adversaries) fix their own geometry
		}
		if w.FootprintBytes() < 32<<20 {
			t.Errorf("%s footprint %d MiB too small for the paper's regime",
				w.Name(), w.FootprintBytes()>>20)
		}
	}
}

func BenchmarkPageRankStream(b *testing.B) {
	w, _ := ByName(SizeSmall, 1, "pageRank")
	b.ResetTimer()
	n := 0
	w.Run(1, func(Access) bool {
		n++
		return n < b.N
	})
}

func BenchmarkCannealStream(b *testing.B) {
	w, _ := ByName(SizeSmall, 1, "canneal")
	b.ResetTimer()
	n := 0
	w.Run(1, func(Access) bool {
		n++
		return n < b.N
	})
}

func TestParseSize(t *testing.T) {
	for name, want := range map[string]Size{"test": SizeTest, "small": SizeSmall, "full": SizeFull} {
		if got, err := ParseSize(name); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseSize("smal"); err == nil || err.Error() != `unknown size "smal"` {
		t.Errorf("ParseSize(\"smal\") error = %v, want unknown size", err)
	}
}
