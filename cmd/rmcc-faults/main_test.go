package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// childArg, followed by rmcc-faults arguments, turns a re-executed test
// binary into the command itself.
const childArg = "rmcc-faults-child"

// TestVerboseReportGolden pins what `rmcc-faults -v -recovery R` prints
// for each recovery policy (canneal at test size, Morphable, seed 7,
// 300 000 accesses): every injected fault with its outcome, the summary,
// the checker's findings and the engine's recovery counters. A change that
// moves the campaign on purpose regenerates the files with
// `go run ./cmd/rmcc-faults -v -recovery R > cmd/rmcc-faults/testdata/R.golden`.
func TestVerboseReportGolden(t *testing.T) {
	if a := flag.Args(); len(a) > 0 && a[0] == childArg {
		os.Args = append([]string{"rmcc-faults"}, a[1:]...)
		main()
		os.Exit(0)
	}
	for _, policy := range []string{"failstop", "retry", "rekey"} {
		want, err := os.ReadFile(filepath.Join("testdata", policy+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestVerboseReportGolden$", childArg, "-v", "-recovery", policy)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("-recovery %s: %v\nstderr: %s\nstdout:\n%s", policy, err, stderr.String(), got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-recovery %s printed\n%s\nwant (testdata/%s.golden)\n%s", policy, got, policy, want)
		}
	}
}
