package experiments

import (
	"fmt"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/sidechan"
	"rmcc/internal/sim"
	"rmcc/internal/stats"
	"rmcc/internal/workload"
)

// leakageAdversary resolves one sidechannel adversary through the workload
// registry — the same path rmccd sessions and rmcc-loadgen use — so the
// figure exercises the registration, not a private constructor.
func leakageAdversary(o Options, name string) sidechan.Adversary {
	w, ok := workload.ByName(o.Size, o.Seed, name)
	if !ok {
		panic("experiments: unknown adversary workload " + name)
	}
	adv, ok := w.(sidechan.Adversary)
	if !ok {
		panic("experiments: workload " + name + " is not a sidechan.Adversary")
	}
	return adv
}

// leakageEpochs scales the attacker-epoch count to the options' lifetime
// window, clamped so the MI estimate has enough samples at Quick scale
// without dominating the suite at Default scale.
func leakageEpochs(o Options, adv sidechan.Adversary) int {
	per := adv.EpochAccesses()
	if per == 0 {
		return 16
	}
	epochs := int(o.LifetimeAccesses / per)
	if epochs < 16 {
		epochs = 16
	}
	if epochs > 96 {
		epochs = 96
	}
	return epochs
}

// FigureLeakage quantifies the side channels: per-epoch mutual information
// (Miller–Madow-corrected, bits) between the adversary's secret class and
// each observable channel, across the protection points. The memo-insert
// rows are the paper-specific result — only RMCC's adaptive insertion
// leaks there, and the hardened mode closes most of it — while ctr-sets
// and pg-offset are classic counter-cache channels every mode shares (the
// memoization machinery neither adds to nor removes them).
func FigureLeakage(o Options) *stats.Table {
	t := &stats.Table{
		Title:  "Leakage: secret-to-observable mutual information per attacker epoch",
		Unit:   "bits",
		Series: []string{"SGX", "Morphable", "RMCC", "RMCC hardened"},
	}
	type point struct {
		mode     engine.Mode
		scheme   counter.Scheme
		hardened bool
	}
	points := []point{
		{engine.Baseline, counter.SGX, false},
		{engine.Baseline, counter.Morphable, false},
		{engine.RMCC, counter.Morphable, false},
		{engine.RMCC, counter.Morphable, true},
	}
	advs := []struct {
		name     string
		channels []string
	}{
		{"ppSweep", []string{"memo-insert", "ctr-sets"}},
		{"memjam4k", []string{"pg-offset", "memo-insert"}},
	}
	reports := sweep(o, len(advs), len(points), func(a, p int) sidechan.Report {
		adv := leakageAdversary(o, advs[a].name)
		res, err := sidechan.RunLeakage(adv, sidechan.LeakageOptions{
			Mode:     points[p].mode,
			Scheme:   points[p].scheme,
			Hardened: points[p].hardened,
			Seed:     o.Seed,
			Epochs:   leakageEpochs(o, adv),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: leakage run %s: %v", advs[a].name, err))
		}
		return res.Report
	})
	for a, adv := range advs {
		for _, ch := range adv.channels {
			row := make([]float64, len(points))
			for p := range points {
				if est, ok := reports[a][p].Channel(ch); ok {
					row[p] = est.Bits
				}
			}
			t.Add(fmt.Sprintf("%s / %s", adv.name, ch), row...)
		}
	}
	return t
}

// FigureHardenedCost prices the hardened (randomized-insertion) RMCC mode
// across the paper's eleven workloads: IPC normalized to non-secure for
// stock and hardened RMCC, plus the hardened/stock ratio (the direct cost
// of decorrelating the insertion channel).
func FigureHardenedCost(o Options) *stats.Table {
	t := &stats.Table{
		Title:   "Hardened RMCC: performance cost of randomized group insertion",
		Unit:    "x",
		Series:  []string{"RMCC", "RMCC hardened", "hardened/RMCC"},
		GeoMean: true,
	}
	hardened := o.detailedConfig(engine.RMCC, counter.Morphable)
	sidechan.HardenConfig(&hardened.Engine, o.Seed)
	cfgs := []sim.DetailedConfig{
		o.detailedConfig(engine.NonSecure, counter.Morphable),
		o.detailedConfig(engine.RMCC, counter.Morphable),
		hardened,
	}
	names := o.names()
	ipc := sweep(o, len(names), len(cfgs), func(i, p int) float64 {
		return o.detailed(names[i], cfgs[p]).IPC
	})
	for i, name := range names {
		ns, rm, hd := ipc[i][0], ipc[i][1], ipc[i][2]
		if ns == 0 || rm == 0 {
			t.Add(name, 0, 0, 0)
			continue
		}
		t.Add(name, rm/ns, hd/ns, hd/rm)
	}
	return t
}
