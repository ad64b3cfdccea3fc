package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childArg, followed by rmcc-experiments arguments, turns a re-executed
// test binary into the command itself.
const childArg = "rmcc-experiments-child"

// TestUnknownWorkloadExits2: a -workloads name that no workload carries
// stops the run before any figure is built, with exit status 2 and a
// pointer to the name list, as an unknown -figures name does.
func TestUnknownWorkloadExits2(t *testing.T) {
	if a := flag.Args(); len(a) > 0 && a[0] == childArg {
		os.Args = append([]string{"rmcc-experiments"}, a[1:]...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownWorkloadExits2$", childArg,
		"-quick", "-parallel", "1", "-figures", "figure3", "-workloads", "canneal,bogus")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-workloads canneal,bogus: %v, want exit status 2; stdout:\n%s", err, stdout.String())
	}
	for _, want := range []string{`unknown workload "bogus"`, "rmccsim -list"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not name %q", stderr.String(), want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused run printed %q", stdout.String())
	}
}
