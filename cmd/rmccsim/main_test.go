package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMetricsOutIsTheResult: -metrics-out writes the run's result struct,
// and decoding the file gives back a value equal to the result the run
// returned, for both drivers. With -metrics-out - the document is all of
// stdout and the summary goes to stderr.
func TestMetricsOutIsTheResult(t *testing.T) {
	for _, driver := range []string{"lifetime", "detailed"} {
		for _, toStdout := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), driver+".json")
			if toStdout {
				path = "-"
			}
			var stdout, stderr bytes.Buffer
			res, err := run([]string{"-workload", "canneal", "-size", "test", "-driver", driver,
				"-accesses", "20000", "-metrics-out", path}, &stdout, &stderr)
			if err != nil {
				t.Fatalf("%s %s: %v", driver, path, err)
			}
			b := stdout.Bytes()
			summary := stderr.String()
			if !toStdout {
				if b, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
				summary = stdout.String()
			}
			if !strings.HasPrefix(summary, "workload            canneal\n") {
				t.Errorf("%s %s: summary went elsewhere: %q", driver, path, summary)
			}
			got := reflect.New(reflect.TypeOf(res))
			if err := json.Unmarshal(b, got.Interface()); err != nil {
				t.Fatalf("%s %s: decode -metrics-out: %v", driver, path, err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), res) {
				t.Fatalf("%s %s: -metrics-out decodes to\n%+v\nthe run returned\n%+v", driver, path, got.Elem(), res)
			}
		}
	}
}

// TestMetricsAndTraceCannotShareStdout: two documents on one stdout would
// parse as neither, so the run is refused before it starts.
func TestMetricsAndTraceCannotShareStdout(t *testing.T) {
	_, err := run([]string{"-size", "test", "-accesses", "1000",
		"-metrics-out", "-", "-trace-out", "-"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("-metrics-out - with -trace-out - was accepted")
	}
}
