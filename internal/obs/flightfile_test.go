//go:build unix

package obs

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// readFlightFile decodes the flight file at path.
func readFlightFile(t *testing.T, path string) *FlightDump {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadFlightDump(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s does not decode: %v", path, err)
	}
	return d
}

func TestOpenFlightFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.rec")
	fr, err := OpenFlightFile(path, 1<<12, "node-a")
	if err != nil {
		t.Fatal(err)
	}
	fr.RecordSpan(SpanRecord{ID: 1, Name: "replay", Detail: "s-1"})
	fr.RecordLog(5, slog.LevelWarn, []byte("msg=x"))

	// The file is the image: a record is in it with no Dump or Sync.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatalf("file (%d bytes) differs from Dump (%d bytes)", len(data), buf.Len())
	}
	d := readFlightFile(t, path)
	if d.Node != "node-a" || d.Records != 2 || len(d.Spans) != 1 || len(d.Logs) != 1 {
		t.Fatalf("file holds node %q records %d spans %d logs %d, want node-a 2 1 1",
			d.Node, d.Records, len(d.Spans), len(d.Logs))
	}
	if err := fr.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Reopening keeps the previous file's records as path.prev and starts
	// an empty image.
	fr2, err := OpenFlightFile(path, 1<<12, "node-a")
	if err != nil {
		t.Fatal(err)
	}
	if prev := readFlightFile(t, path+".prev"); len(prev.Spans) != 1 || prev.Spans[0].Detail != "s-1" {
		t.Fatalf("%s.prev holds %+v, want the first run's span", path, prev.Spans)
	}
	if d := readFlightFile(t, path); d.Records != 0 || len(d.Spans) != 0 {
		t.Fatalf("reopened file holds %d records, want 0", d.Records)
	}
	fr2.RecordSpan(SpanRecord{ID: 1, Name: "replay", Detail: "s-2"})
	if d := readFlightFile(t, path); len(d.Spans) != 1 || d.Spans[0].Detail != "s-2" {
		t.Fatalf("reopened file holds %+v, want the new span", d.Spans)
	}

	if _, err := OpenFlightFile(filepath.Join(t.TempDir(), "missing", "flight.rec"), 0, "n"); err == nil {
		t.Fatal("OpenFlightFile in a missing directory succeeded")
	}
}

// flightChildArg, followed by a path, turns a re-executed test binary
// into a child that records into a mapped flight file until it is killed.
const flightChildArg = "flight-child"

// runFlightChild records spans from four goroutines, each numbering its
// own, and warn lines into a 4 KiB ring mapped onto path, prints "ready"
// once a span is in, and runs until killed.
func runFlightChild(path string) {
	fr, err := OpenFlightFile(path, 4096, "child")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lg := NewLogger(io.Discard, slog.LevelWarn, "text")
	AttachFlight(lg, fr)
	for g := 0; g < 4; g++ {
		go func(g int) {
			detail := fmt.Sprintf("g%d", g)
			for id := uint64(1); ; id++ {
				fr.RecordSpan(SpanRecord{ID: id, Name: "child", Detail: detail})
				if id%4 == 0 {
					lg.Warn("tick", "g", g, "id", id)
				}
			}
		}(g)
	}
	for fr.SpanTotal() == 0 {
		runtime.Gosched()
	}
	fmt.Println("ready")
	select {}
}

// TestFlightFileSurvivesSIGKILL kills a recording child at a random
// point, again and again, and requires every file it leaves to decode to
// whole records: at least one span, and each goroutine's span IDs
// strictly increasing.
func TestFlightFileSurvivesSIGKILL(t *testing.T) {
	if a := flag.Args(); len(a) == 2 && a[0] == flightChildArg {
		runFlightChild(a[1])
	}
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	for run := 0; run < 50; run++ {
		path := filepath.Join(dir, fmt.Sprintf("flight-%d.rec", run))
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlightFileSurvivesSIGKILL$", "-test.timeout=1m", flightChildArg, path)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil || line != "ready\n" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("run %d: child said %q (%v); stderr: %s", run, line, err, stderr.String())
		}
		time.Sleep(time.Duration(rng.Int63n(int64(3 * time.Millisecond))))
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()

		d := readFlightFile(t, path)
		if len(d.Spans) == 0 {
			t.Fatalf("run %d: no span survived (records %d, logs %d)", run, d.Records, len(d.Logs))
		}
		last := map[string]uint64{}
		for _, sp := range d.Spans {
			if prev, ok := last[sp.Detail]; ok && sp.ID <= prev {
				t.Fatalf("run %d: %s span %d after %d", run, sp.Detail, sp.ID, prev)
			}
			last[sp.Detail] = sp.ID
		}
	}
}
