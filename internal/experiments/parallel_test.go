package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/stats"
)

func tableString(t *stats.Table) string { return t.String() }

// resetRuns empties both run caches, so the next render simulates every
// run afresh.
func resetRuns() {
	lifetimeRuns.reset()
	detailedRuns.reset()
}

func (c *runCache[C, R]) reset() {
	c.mu.Lock()
	c.runs = nil
	c.mu.Unlock()
}

// builds is the number of simulations both run caches have executed.
func builds() uint64 { return lifetimeRuns.builds.Load() + detailedRuns.builds.Load() }

// renderFresh renders fig from empty run caches and returns the table and
// the number of simulations the render built.
func renderFresh(fig func(Options) *stats.Table, o Options) (string, uint64) {
	resetRuns()
	before := builds()
	table := tableString(fig(o))
	return table, builds() - before
}

// requireSameRender renders fig sequentially and with an 8-worker pool, each
// from empty run caches, and requires byte-identical tables: the worker
// pool must not change any result, only wall-clock time. Both renders must
// simulate the same runs, so neither reads the other's results.
func requireSameRender(t *testing.T, name string, fig func(Options) *stats.Table) {
	t.Helper()
	seq := testOptions()
	seq.Parallelism = 1
	par := testOptions()
	par.Parallelism = 8
	a, seqBuilds := renderFresh(fig, seq)
	b, parBuilds := renderFresh(fig, par)
	if parBuilds == 0 || parBuilds != seqBuilds {
		t.Errorf("%s: parallel render built %d simulations, sequential %d", name, parBuilds, seqBuilds)
	}
	if a != b {
		t.Errorf("%s: parallel table differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", name, a, b)
	}
}

// TestParallelismDeterministic covers the lifetime figures.
func TestParallelismDeterministic(t *testing.T) {
	requireSameRender(t, "figure10", Figure10)
	requireSameRender(t, "ablation", Ablation)
	requireSameRender(t, "figure20", Figure20)
}

// TestParallelismDeterministicDetailed covers the detailed driver with
// Figure 13.
func TestParallelismDeterministicDetailed(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed runs are slow")
	}
	requireSameRender(t, "figure13", Figure13)
}

// TestRunCacheBuildsOncePerKey hammers one key per driver from 16
// goroutines and requires exactly one simulation build: the per-entry
// sync.Once must collapse concurrent duplicate requests. Run with -race in
// CI.
func TestRunCacheBuildsOncePerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed runs are slow")
	}
	o := testOptions()
	for _, tc := range []struct {
		driver string
		builds *atomic.Uint64
		run    func() float64
	}{
		{"lifetime", &lifetimeRuns.builds, func() float64 { return o.rmcc("mcf").Engine.MemoHitRateAll() }},
		{"detailed", &detailedRuns.builds, func() float64 {
			return o.detailed("mcf", o.detailedConfig(engine.RMCC, counter.Morphable)).IPC
		}},
	} {
		t.Run(tc.driver, func(t *testing.T) {
			resetRuns()
			before := tc.builds.Load()
			results := make([]float64, 16)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[g] = tc.run()
				}()
			}
			wg.Wait()
			if built := tc.builds.Load() - before; built != 1 {
				t.Fatalf("16 concurrent identical requests built %d simulations, want 1", built)
			}
			for g := range results {
				if results[g] != results[0] {
					t.Fatalf("goroutine %d saw %v, goroutine 0 saw %v", g, results[g], results[0])
				}
			}
		})
	}
}

// TestCancellationStopsSweep cancels the sweep context after the first few
// cells and requires the remaining queue to be abandoned: both the
// sequential and the parallel paths must stop picking up cells once the
// context is done.
func TestCancellationStopsSweep(t *testing.T) {
	for _, par := range []int{1, 4} {
		o := testOptions()
		o.Parallelism = par
		ctx, cancel := context.WithCancel(context.Background())
		o.Context = ctx

		const n = 1000
		var ran atomic.Int64
		o.forEachIndex(n, func(i int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		got := ran.Load()
		// Each in-flight worker may finish the cell it already claimed, so
		// the bound is cells-before-cancel plus one per worker — far below n.
		limit := int64(3 + par)
		if got > limit {
			t.Errorf("parallelism %d: %d cells ran after cancel (limit %d)", par, got, limit)
		}
		cancel()
	}
}

// TestCancelledBeforeStartRunsNothing: a sweep whose context is already
// done must not run a single cell.
func TestCancelledBeforeStartRunsNothing(t *testing.T) {
	for _, par := range []int{1, 4} {
		o := testOptions()
		o.Parallelism = par
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		o.Context = ctx
		ran := 0
		o.forEachIndex(50, func(i int) { ran++ })
		if ran != 0 {
			t.Errorf("parallelism %d: %d cells ran with a pre-cancelled context", par, ran)
		}
	}
}

// TestForEachIndexCoversAll checks the work queue hits every index exactly
// once for worker counts below, at, and above the item count.
func TestForEachIndexCoversAll(t *testing.T) {
	for _, par := range []int{1, 3, 8, 64} {
		o := testOptions()
		o.Parallelism = par
		const n = 23
		var counts [n]int
		var mu sync.Mutex
		o.forEachIndex(n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", par, i, c)
			}
		}
	}
}
