package main

import (
	"math"
	"strings"
	"testing"
)

// fig builds a one-series, two-row figure whose cells are v and 2v.
func fig(name string, seconds, v float64) figure {
	return figure{Name: name, Seconds: seconds, Series: []string{"hit rate"},
		Rows: []row{{Name: "canneal", Cells: []float64{v}}, {Name: "mcf", Cells: []float64{2 * v}}}}
}

// TestDiff compares small in-memory reports. A subset run skips the
// baseline figure it did not produce; a removed micro and new entries are
// listed without failing; a figure slowdown beyond the threshold, a micro
// that starts allocating, a changed cell and a renamed row each count
// once.
func TestDiff(t *testing.T) {
	base := report{
		Figures: []figure{fig("figure3", 10, 0.5), fig("figure10", 10, 0.25), fig("figure99", 5, 1)},
		Micro: []micro{
			{Name: "engine_read_hit", NsPerOp: 100},
			{Name: "memo_lookup", NsPerOp: 20},
			{Name: "old_decoder", NsPerOp: 400},
		},
	}
	cur := report{
		Figures: []figure{fig("figure3", 11, 0.5), fig("figure10", 13, 0.25)},
		Micro: []micro{
			{Name: "engine_read_hit", NsPerOp: 100, AllocsPerOp: 1},
			{Name: "memo_lookup", NsPerOp: 21},
			{Name: "cache_access", NsPerOp: 30},
		},
	}
	var out strings.Builder
	if got := diff(&out, base, cur, 0.25); got != 2 {
		t.Errorf("regressions = %d, want 2 (figure10 +30%%, engine_read_hit 0->1 allocs)\n%s", got, out.String())
	}
	if strings.Contains(out.String(), "figure99") {
		t.Errorf("subset run lists the baseline figure it did not produce:\n%s", out.String())
	}
	for _, want := range []string{
		"old_decoder",
		"(removed bench, not compared)",
		"cache_access",
		"(new bench, not compared)",
		"REGRESSION (allocates 1/op, baseline 0)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		isRegression := strings.Contains(line, "REGRESSION")
		wantRegression := strings.HasPrefix(line, "figure10 ") || strings.HasPrefix(line, "engine_read_hit ")
		if isRegression != wantRegression {
			t.Errorf("line %q: REGRESSION mark = %v, want %v", line, isRegression, wantRegression)
		}
	}

	// Figures that ran under a second on both sides are listed but not
	// timed: a figure reusing another's runs reads microseconds.
	for _, tc := range []struct {
		base, cur float64
		want      int
	}{
		{41e-6, 74e-6, 0},
		{10, 13, 1},
		{0.8, 1.3, 1},
	} {
		out.Reset()
		got := diff(&out, report{Figures: []figure{fig("figure14", tc.base, 0.5)}},
			report{Figures: []figure{fig("figure14", tc.cur, 0.5)}}, 0.25)
		if got != tc.want {
			t.Errorf("%gs -> %gs: regressions = %d, want %d:\n%s", tc.base, tc.cur, got, tc.want, out.String())
		}
		if note := strings.Contains(out.String(), "timing not gated"); note != (tc.cur < 1) {
			t.Errorf("%gs -> %gs: not-gated note = %v:\n%s", tc.base, tc.cur, note, out.String())
		}
	}

	for _, tc := range []struct {
		name string
		edit func(*figure)
		want string
	}{
		{"changed cell", func(f *figure) { f.Rows[1].Cells[0] = math.Nextafter(1, 2) },
			"REGRESSION (values: row mcf cells [1] -> [1.0000000000000002])"},
		{"renamed row", func(f *figure) { f.Rows[0].Name = "canneal2" },
			`REGRESSION (values: row 0 "canneal" -> "canneal2")`},
	} {
		c := fig("figure3", 10, 0.5)
		tc.edit(&c)
		out.Reset()
		got := diff(&out, report{Figures: []figure{fig("figure3", 10, 0.5)}}, report{Figures: []figure{c}}, 0.25)
		if got != 1 || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressions = %d, want 1 with %q:\n%s", tc.name, got, tc.want, out.String())
		}
	}
}
