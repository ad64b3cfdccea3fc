package experiments

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/workload"
)

// testOptions keeps experiment smoke tests fast: tiny workloads, short
// runs, two representative benchmarks.
func testOptions() Options {
	return Options{
		Size:             workload.SizeTest,
		Seed:             1,
		Workloads:        []string{"canneal", "mcf"},
		LifetimeAccesses: 150_000,
		WarmupAccesses:   20_000,
		MeasureAccesses:  60_000,
		EpochAccesses:    20_000,
		OverMaxThreshold: 128,
	}
}

func TestWorkloadFilter(t *testing.T) {
	o := testOptions()
	o.Workloads = []string{"mcf", "canneal", "mcf", "nope"}
	if got := o.names(); !slices.Equal(got, []string{"canneal", "mcf"}) {
		t.Fatalf("filtered workloads = %v, want [canneal mcf] in suite order", got)
	}
	o.Workloads = nil
	if len(o.names()) != 11 {
		t.Fatal("nil filter should yield all eleven")
	}
}

func TestFigure3Shape(t *testing.T) {
	tb := Figure3(testOptions())
	if len(tb.Rows) != 2 || len(tb.Series) != 1 {
		t.Fatalf("table shape: %d rows x %d series", len(tb.Rows), len(tb.Series))
	}
	canneal, _ := tb.Cell("canneal", "ctr miss rate")
	mcf, _ := tb.Cell("mcf", "ctr miss rate")
	if canneal <= mcf {
		t.Fatalf("Figure-3 ordering violated: canneal %.3f <= mcf %.3f", canneal, mcf)
	}
	if !strings.Contains(tb.String(), "canneal") {
		t.Fatal("rendering lost the workload row")
	}
}

func TestFigure10SplitsSources(t *testing.T) {
	tb := Figure10(testOptions())
	g, _ := tb.Cell("canneal", "groups")
	m, _ := tb.Cell("canneal", "recently-used")
	total, _ := tb.Cell("canneal", "total")
	if total != g+m {
		t.Fatalf("total %.3f != groups %.3f + MRU %.3f", total, g, m)
	}
	if total <= 0 || total > 1 {
		t.Fatalf("total out of range: %v", total)
	}
}

func TestFigure19BudgetMonotone(t *testing.T) {
	tb := Figure19(testOptions())
	lo, _ := tb.Cell("canneal", "1% budget")
	hi, _ := tb.Cell("canneal", "8% budget")
	// More budget must never reduce the hit rate materially.
	if hi < lo-0.05 {
		t.Fatalf("8%% budget hit rate %.3f below 1%% budget %.3f", hi, lo)
	}
}

func TestFigure21GroupSizeRuns(t *testing.T) {
	tb := Figure21(testOptions())
	if len(tb.Series) != 3 {
		t.Fatalf("series = %v", tb.Series)
	}
	for _, r := range tb.Rows {
		for i, c := range r.Cells {
			if c < 0 || c > 1 {
				t.Fatalf("%s cell %d out of range: %v", r.Name, i, c)
			}
		}
	}
}

func TestHeadlineTable(t *testing.T) {
	tb := Headline(testOptions())
	acc, ok := tb.Cell("canneal", "accelerated")
	if !ok || acc < 0 || acc > 1 {
		t.Fatalf("accelerated rate = %v ok=%v", acc, ok)
	}
}

func TestConvergenceGrows(t *testing.T) {
	o := testOptions()
	o.LifetimeAccesses = 400_000
	tb := Convergence(o)
	first := tb.Rows[0].Cells
	if first[len(first)-1] < first[0] {
		t.Fatalf("hit rate shrank with lifetime: %v", first)
	}
}

func TestAblationFullBeatsCrippled(t *testing.T) {
	tb := Ablation(testOptions())
	full, _ := tb.Cell("full RMCC", "memo hit on miss")
	noRead, _ := tb.Cell("no read-triggered update", "memo hit on miss")
	if full+1e-9 < noRead-0.1 {
		t.Fatalf("full RMCC (%.3f) materially below read-update ablation (%.3f)", full, noRead)
	}
}

// TestRunCacheKeysWholeConfig: options that differ only in a field the
// configuration resolves from get their own runs from both drivers, and a
// repeated request builds nothing and returns the same result.
func TestRunCacheKeysWholeConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed runs are slow")
	}
	base := testOptions()
	epoch := base
	epoch.EpochAccesses *= 2
	over := base
	over.OverMaxThreshold *= 2
	for _, tc := range []struct {
		driver string
		builds *atomic.Uint64
		run    func(Options) float64
	}{
		{"lifetime", &lifetimeRuns.builds, func(o Options) float64 { return o.rmcc("canneal").Engine.MemoHitRateAll() }},
		{"detailed", &detailedRuns.builds, func(o Options) float64 {
			return o.detailed("canneal", o.detailedConfig(engine.RMCC, counter.Morphable)).IPC
		}},
	} {
		t.Run(tc.driver, func(t *testing.T) {
			resetRuns()
			var first float64
			for i, step := range []struct {
				what string
				o    Options
				want uint64
			}{
				{"first request", base, 1},
				{"same options", base, 0},
				{"EpochAccesses", epoch, 1},
				{"OverMaxThreshold", over, 1},
			} {
				before := tc.builds.Load()
				res := tc.run(step.o)
				if built := tc.builds.Load() - before; built != step.want {
					t.Errorf("%s: built %d simulations, want %d", step.what, built, step.want)
				}
				if i == 0 {
					first = res
				} else if step.want == 0 && res != first {
					t.Errorf("%s: cached result %v, first %v", step.what, res, first)
				}
			}
		})
	}
}

// TestFigure4SharesFigure3Runs: both figures read the Morphable lifetime
// run, so Figure 4 after Figure 3 simulates nothing.
func TestFigure4SharesFigure3Runs(t *testing.T) {
	o := testOptions()
	resetRuns()
	Figure3(o)
	before := builds()
	Figure4(o)
	if built := builds() - before; built != 0 {
		t.Fatalf("Figure 4 after Figure 3 built %d simulations, want 0", built)
	}
}

func TestExtensionSpeculationComposes(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed runs are slow")
	}
	o := testOptions()
	o.Workloads = []string{"canneal"}
	tb := ExtensionSpeculation(o)
	mo, _ := tb.Cell("canneal", "Morphable")
	moSpec, _ := tb.Cell("canneal", "Morph+Spec")
	rmSpec, _ := tb.Cell("canneal", "RMCC+Spec")
	if moSpec < mo*0.98 {
		t.Fatalf("speculation hurt the baseline: %.3f vs %.3f", moSpec, mo)
	}
	if rmSpec < moSpec*0.95 {
		t.Fatalf("RMCC+spec (%.3f) far below spec-only (%.3f)", rmSpec, moSpec)
	}
}

func TestFigure13SmokeDetailed(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed runs are slow")
	}
	o := testOptions()
	o.Workloads = []string{"canneal"}
	tb := Figure13(o)
	for _, series := range tb.Series {
		v, ok := tb.Cell("canneal", series)
		if !ok || v <= 0 || v > 1.2 {
			t.Fatalf("%s normalized perf = %v ok=%v", series, v, ok)
		}
	}
}
