// Command rmcc-benchdiff compares two perf reports produced by
// rmcc-experiments -json (the format scripts/bench.sh archives as
// BENCH_<date>.json) and fails when the current run regresses against the
// baseline:
//
//   - a figure present in both reports changed any value: its series, its
//     row names, or any cell (exact float64 equality; figure values are
//     deterministic at a fixed seed),
//   - a figure present in both reports got more than -threshold (default
//     25%) slower in wall-clock seconds, unless it ran under a second in
//     both (such a figure is listed with its delta but not gated: at
//     microseconds, as when a figure reuses another's runs, the relative
//     change is noise), or
//   - a micro-benchmark present in both reports started allocating where
//     the baseline did not (the engine read-hit path must stay 0
//     allocs/op).
//
// Baseline figures the current run did not produce are skipped, so a
// -figures subset compares only what it ran. New figures and
// micro-benchmarks present in only one report are listed but never fail
// the diff.
//
// Usage:
//
//	rmcc-benchdiff -baseline BENCH_2026-10-19.json -current /tmp/fresh.json
//
// Exit status: 0 when no regression, 1 on regression, 2 on usage/parse
// errors. See scripts/bench_diff.sh for the CI entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"rmcc/internal/buildinfo"
)

// minGatedSeconds is the wall-clock floor of the -threshold gate: a figure
// under it in both reports is not timed against the threshold.
const minGatedSeconds = 1.0

type report struct {
	Generated    string   `json:"generated"`
	Quick        bool     `json:"quick"`
	Seed         uint64   `json:"seed"`
	Figures      []figure `json:"figures"`
	Micro        []micro  `json:"micro"`
	TotalSeconds float64  `json:"total_seconds"`
}

type figure struct {
	Name    string   `json:"name"`
	Seconds float64  `json:"seconds"`
	Series  []string `json:"series"`
	Rows    []row    `json:"rows"`
}

type row struct {
	Name  string    `json:"name"`
	Cells []float64 `json:"cells"`
}

type micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline perf report (BENCH_<date>.json)")
		currentPath  = flag.String("current", "", "fresh perf report to compare")
		threshold    = flag.Float64("threshold", 0.25, "relative wall-clock slowdown that fails the diff")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-benchdiff"))
		return
	}
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "rmcc-benchdiff: -baseline and -current are required")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmcc-benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmcc-benchdiff:", err)
		os.Exit(2)
	}

	regressions := diff(os.Stdout, base, cur, *threshold)
	if regressions > 0 {
		fmt.Printf("\n%d regression(s) (changed figure values, >%.0f%% slower figures of 1 s or more, or new allocations)\n",
			regressions, 100**threshold)
		os.Exit(1)
	}
	fmt.Println("\nno regressions")
}

// diff writes the figure and micro comparison tables to w and returns
// the number of regressions. Baseline figures missing from the current
// report are skipped; other entries present in only one report are
// listed and never counted.
func diff(w io.Writer, base, cur report, threshold float64) int {
	regressions := 0

	baseFigs := map[string]figure{}
	for _, f := range base.Figures {
		baseFigs[f.Name] = f
	}
	fmt.Fprintf(w, "%-24s %12s %12s %8s\n", "figure", "base (s)", "current (s)", "delta")
	for _, f := range cur.Figures {
		b, ok := baseFigs[f.Name]
		if !ok {
			fmt.Fprintf(w, "%-24s %12s %12.2f %8s  (new figure, not compared)\n", f.Name, "-", f.Seconds, "-")
			continue
		}
		rel := 0.0
		if b.Seconds > 0 {
			rel = f.Seconds/b.Seconds - 1
		}
		mark := ""
		switch {
		case b.Seconds < minGatedSeconds && f.Seconds < minGatedSeconds:
			mark = fmt.Sprintf("  (under %gs, timing not gated)", minGatedSeconds)
		case rel > threshold:
			mark = "  REGRESSION"
			regressions++
		}
		if d := valuesDiffer(b, f); d != "" {
			mark += "  REGRESSION (values: " + d + ")"
			regressions++
		}
		fmt.Fprintf(w, "%-24s %12.2f %12.2f %+7.1f%%%s\n", f.Name, b.Seconds, f.Seconds, 100*rel, mark)
	}

	baseMicro := map[string]micro{}
	for _, m := range base.Micro {
		baseMicro[m.Name] = m
	}
	if len(cur.Micro) > 0 || len(base.Micro) > 0 {
		fmt.Fprintf(w, "\n%-24s %12s %12s %10s\n", "micro", "base ns/op", "cur ns/op", "allocs")
	}
	for _, m := range cur.Micro {
		b, ok := baseMicro[m.Name]
		if !ok {
			fmt.Fprintf(w, "%-24s %12s %12.1f %10d  (new bench, not compared)\n", m.Name, "-", m.NsPerOp, m.AllocsPerOp)
			continue
		}
		delete(baseMicro, m.Name)
		mark := ""
		if b.AllocsPerOp == 0 && m.AllocsPerOp > 0 {
			mark = fmt.Sprintf("  REGRESSION (allocates %d/op, baseline 0)", m.AllocsPerOp)
			regressions++
		}
		fmt.Fprintf(w, "%-24s %12.1f %12.1f %6d->%-3d%s\n", m.Name, b.NsPerOp, m.NsPerOp, b.AllocsPerOp, m.AllocsPerOp, mark)
	}
	for _, b := range base.Micro {
		if _, removed := baseMicro[b.Name]; removed {
			fmt.Fprintf(w, "%-24s %12.1f %12s %10d  (removed bench, not compared)\n", b.Name, b.NsPerOp, "-", b.AllocsPerOp)
		}
	}
	return regressions
}

// valuesDiffer describes the first value that differs between a figure's
// baseline and current tables, or returns "" when the series, the row
// names and every cell are identical.
func valuesDiffer(b, c figure) string {
	if !slices.Equal(b.Series, c.Series) {
		return fmt.Sprintf("series %q -> %q", b.Series, c.Series)
	}
	if len(b.Rows) != len(c.Rows) {
		return fmt.Sprintf("%d rows -> %d", len(b.Rows), len(c.Rows))
	}
	for i, br := range b.Rows {
		cr := c.Rows[i]
		if br.Name != cr.Name {
			return fmt.Sprintf("row %d %q -> %q", i, br.Name, cr.Name)
		}
		if !slices.Equal(br.Cells, cr.Cells) {
			return fmt.Sprintf("row %s cells %v -> %v", br.Name, br.Cells, cr.Cells)
		}
	}
	return ""
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}
