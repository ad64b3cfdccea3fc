package experiments

import "testing"

// leakageTestOptions keeps the leakage figure fast: 16 attacker epochs per
// cell (the minimum clamp) at test scale.
func leakageTestOptions() Options {
	o := testOptions()
	o.LifetimeAccesses = 100_000 // below 16 epochs of ppSweep → clamps to 16
	return o
}

func TestFigureLeakageShape(t *testing.T) {
	tb := FigureLeakage(leakageTestOptions())
	if len(tb.Rows) != 4 || len(tb.Series) != 4 {
		t.Fatalf("table shape: %d rows x %d series", len(tb.Rows), len(tb.Series))
	}

	// The paper-specific result: only stock RMCC leaks through the memo
	// table, and the hardened mode closes most of it.
	rmcc, _ := tb.Cell("ppSweep / memo-insert", "RMCC")
	hard, _ := tb.Cell("ppSweep / memo-insert", "RMCC hardened")
	sgx, _ := tb.Cell("ppSweep / memo-insert", "SGX")
	morph, _ := tb.Cell("ppSweep / memo-insert", "Morphable")
	if sgx != 0 || morph != 0 {
		t.Errorf("non-memoizing baselines leak via memo-insert: sgx=%v morphable=%v", sgx, morph)
	}
	if rmcc < 1.0 {
		t.Errorf("stock RMCC memo-insert = %.3f bits, want > 1.0", rmcc)
	}
	if hard >= 0.5*rmcc {
		t.Errorf("hardened memo-insert = %.3f bits, want < half of stock %.3f", hard, rmcc)
	}

	// The cache channels are mode-independent: every mode leaks them alike.
	for _, series := range tb.Series {
		cs, _ := tb.Cell("ppSweep / ctr-sets", series)
		if cs < 1.0 {
			t.Errorf("ctr-sets under %s = %.3f bits, want > 1.0", series, cs)
		}
		pg, _ := tb.Cell("memjam4k / pg-offset", series)
		if pg < 1.0 {
			t.Errorf("pg-offset under %s = %.3f bits, want > 1.0", series, pg)
		}
		mi, _ := tb.Cell("memjam4k / memo-insert", series)
		if mi != 0 {
			t.Errorf("memjam4k memo-insert under %s = %.3f bits, want 0", series, mi)
		}
	}
}

// TestFigureLeakageDeterministicAndParallel: the figure must be
// byte-identical across repeated runs and across Parallelism settings (the
// acceptance criterion shared by every figure in the suite).
func TestFigureLeakageDeterministicAndParallel(t *testing.T) {
	o := leakageTestOptions()
	seq := FigureLeakage(o).String()
	if again := FigureLeakage(o).String(); again != seq {
		t.Fatal("repeated sequential runs differ")
	}
	o.Parallelism = -1
	if par := FigureLeakage(o).String(); par != seq {
		t.Fatal("parallel run differs from sequential")
	}
}

func TestFigureHardenedCostShape(t *testing.T) {
	tb := FigureHardenedCost(testOptions())
	if len(tb.Rows) != 2 || len(tb.Series) != 3 {
		t.Fatalf("table shape: %d rows x %d series", len(tb.Rows), len(tb.Series))
	}
	for _, row := range []string{"canneal", "mcf"} {
		rm, _ := tb.Cell(row, "RMCC")
		hd, _ := tb.Cell(row, "RMCC hardened")
		ratio, _ := tb.Cell(row, "hardened/RMCC")
		if rm <= 0 || hd <= 0 {
			t.Fatalf("%s: non-positive normalized IPC (%v, %v)", row, rm, hd)
		}
		if diff := ratio - hd/rm; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: ratio %.6f != hardened/stock %.6f", row, ratio, hd/rm)
		}
	}
}

// TestLeakageAdversaryResolution: the figure resolves adversaries through
// the shared registry, and the epoch clamp holds at both extremes.
func TestLeakageAdversaryResolution(t *testing.T) {
	o := testOptions()
	adv := leakageAdversary(o, "ppSweep")
	if adv.Name() != "ppSweep" {
		t.Fatalf("resolved %q", adv.Name())
	}
	o.LifetimeAccesses = 0
	if e := leakageEpochs(o, adv); e != 16 {
		t.Errorf("low clamp: epochs = %d, want 16", e)
	}
	o.LifetimeAccesses = 1 << 40
	if e := leakageEpochs(o, adv); e != 96 {
		t.Errorf("high clamp: epochs = %d, want 96", e)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown adversary did not panic")
		}
	}()
	leakageAdversary(o, "canneal") // not an Adversary
}

// TestWorkloadFilterExcludesExtras: the default workload set for paper
// figures stays the eleven even with the adversaries registered.
func TestWorkloadFilterExcludesExtras(t *testing.T) {
	o := testOptions()
	o.Workloads = nil
	for _, name := range o.names() {
		if name == "ppSweep" || name == "memjam4k" {
			t.Fatalf("adversary %q leaked into the default figure set", name)
		}
	}
	o.Workloads = []string{"ppSweep"}
	if names := o.names(); len(names) != 1 || names[0] != "ppSweep" {
		t.Fatalf("explicit extra selection = %v", names)
	}
}
