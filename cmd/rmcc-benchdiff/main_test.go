package main

import (
	"strings"
	"testing"
)

// TestDiff compares two small in-memory reports: removed and new entries
// are listed without failing, while a figure slowdown beyond the
// threshold and a micro that starts allocating each count once.
func TestDiff(t *testing.T) {
	base := report{
		Figures: []figure{{Name: "figure3", Seconds: 10}, {Name: "figure10", Seconds: 10}, {Name: "figure99", Seconds: 5}},
		Micro: []micro{
			{Name: "engine_read_hit", NsPerOp: 100},
			{Name: "memo_lookup", NsPerOp: 20},
			{Name: "old_decoder", NsPerOp: 400},
		},
	}
	cur := report{
		Figures: []figure{{Name: "figure3", Seconds: 11}, {Name: "figure10", Seconds: 13}},
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
	for _, want := range []string{
		"figure99",
		"(removed figure, not compared)",
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
}
