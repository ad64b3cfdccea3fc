package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMetricsOutIsTheResult: -metrics-out writes the run's result struct,
// and decoding the file gives back a value equal to the result the run
// returned, for both drivers.
func TestMetricsOutIsTheResult(t *testing.T) {
	for _, driver := range []string{"lifetime", "detailed"} {
		path := filepath.Join(t.TempDir(), driver+".json")
		res, err := run([]string{"-workload", "canneal", "-size", "test", "-driver", driver,
			"-accesses", "20000", "-metrics-out", path}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", driver, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(res))
		if err := json.Unmarshal(b, got.Interface()); err != nil {
			t.Fatalf("%s: decode -metrics-out: %v", driver, err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), res) {
			t.Fatalf("%s: -metrics-out decodes to\n%+v\nthe run returned\n%+v", driver, got.Elem(), res)
		}
	}
}
