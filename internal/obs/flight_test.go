package obs

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// dumpAndRead round-trips fr through Dump and ReadFlightDump.
func dumpAndRead(t *testing.T, fr *FlightRecorder) *FlightDump {
	t.Helper()
	var buf bytes.Buffer
	if err := fr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	return d
}

func TestFlightRoundTrip(t *testing.T) {
	fr := NewFlightRecorder(1<<16, "node-a")
	span := SpanRecord{
		ID: 3, Parent: 2, TraceHi: 0xaa, TraceLo: 0xbb, Remote: 1,
		Name: "engine-step", Detail: "s-42", Start: 1234, Duration: 567,
	}
	fr.RecordSpan(span)
	ev := Event{Seq: 9, Kind: EvFaultInjected, Addr: 0x1000, V1: 2, V2: 3}
	fr.RecordEvent(ev)
	fr.RecordLog(777, slog.LevelWarn, []byte("ts=x level=warn msg=boom\n"))

	d := dumpAndRead(t, fr)
	if d.Node != "node-a" || d.Records != 3 || d.Dropped != 0 {
		t.Fatalf("header = %q/%d/%d, want node-a/3/0", d.Node, d.Records, d.Dropped)
	}
	if len(d.Spans) != 1 || d.Spans[0] != span {
		t.Fatalf("spans = %+v, want [%+v]", d.Spans, span)
	}
	if len(d.Events) != 1 || d.Events[0] != ev {
		t.Fatalf("events = %+v, want [%+v]", d.Events, ev)
	}
	want := FlightLog{TimeNS: 777, Level: slog.LevelWarn, Line: "ts=x level=warn msg=boom"}
	if len(d.Logs) != 1 || d.Logs[0] != want {
		t.Fatalf("logs = %+v, want [%+v]", d.Logs, want)
	}
}

func TestFlightEviction(t *testing.T) {
	fr := NewFlightRecorder(256, "tiny")
	for i := 0; i < 100; i++ {
		fr.RecordSpan(SpanRecord{ID: uint64(i + 1), Name: "s", Detail: "dddddddddd"})
	}
	if fr.Dropped() == 0 {
		t.Fatal("a 256-byte ring must evict under 100 spans")
	}
	d := dumpAndRead(t, fr)
	if len(d.Spans) == 0 {
		t.Fatal("dump retained no spans")
	}
	// The retained window is the newest records, in order.
	last := d.Spans[len(d.Spans)-1]
	if last.ID != 100 {
		t.Fatalf("newest span ID = %d, want 100", last.ID)
	}
	for i := 1; i < len(d.Spans); i++ {
		if d.Spans[i].ID != d.Spans[i-1].ID+1 {
			t.Fatalf("retained spans not contiguous: %d after %d", d.Spans[i].ID, d.Spans[i-1].ID)
		}
	}
	if d.Records != 100 || d.Dropped != 100-uint64(len(d.Spans)) {
		t.Fatalf("counters records=%d dropped=%d retained=%d", d.Records, d.Dropped, len(d.Spans))
	}
}

func TestFlightTruncatesOversize(t *testing.T) {
	fr := NewFlightRecorder(1<<16, "n")
	fr.RecordSpan(SpanRecord{ID: 1, Name: strings.Repeat("n", 400), Detail: strings.Repeat("d", 5000)})
	fr.RecordLog(1, slog.LevelError, []byte(strings.Repeat("x", 10000)))
	d := dumpAndRead(t, fr)
	if len(d.Spans[0].Name) != flightMaxName || len(d.Spans[0].Detail) != flightMaxDetail {
		t.Fatalf("span strings not truncated: %d/%d", len(d.Spans[0].Name), len(d.Spans[0].Detail))
	}
	if len(d.Logs[0].Line) != flightMaxLine {
		t.Fatalf("log line not truncated: %d", len(d.Logs[0].Line))
	}
}

func TestFlightNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.RecordSpan(SpanRecord{})
	fr.RecordEvent(Event{})
	fr.RecordLog(0, slog.LevelWarn, nil)
	if fr.Records() != 0 || fr.Dropped() != 0 || fr.Bytes() != 0 || fr.Cap() != 0 || fr.Node() != "" {
		t.Fatal("nil recorder accessors must be zero")
	}
	if err := fr.Dump(&bytes.Buffer{}); err == nil {
		t.Fatal("nil Dump must error")
	}
	if err := fr.Sync(); err != nil {
		t.Fatalf("nil Sync = %v, want nil", err)
	}
}

func TestFlightRecordAllocFree(t *testing.T) {
	fr := NewFlightRecorder(1<<20, "n")
	span := SpanRecord{ID: 1, TraceHi: 1, TraceLo: 2, Name: "engine-step", Detail: "s-1234"}
	line := []byte("ts=x level=warn msg=slow\n")
	if a := testing.AllocsPerRun(500, func() { fr.RecordSpan(span) }); a != 0 {
		t.Fatalf("RecordSpan allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() { fr.RecordEvent(Event{Seq: 1}) }); a != 0 {
		t.Fatalf("RecordEvent allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() { fr.RecordLog(1, slog.LevelWarn, line) }); a != 0 {
		t.Fatalf("RecordLog allocates %.1f/op, want 0", a)
	}
	// Steady state includes eviction: fill a small ring and keep writing.
	small := NewFlightRecorder(4096, "n")
	for i := 0; i < 200; i++ {
		small.RecordSpan(span)
	}
	if a := testing.AllocsPerRun(500, func() { small.RecordSpan(span) }); a != 0 {
		t.Fatalf("RecordSpan with eviction allocates %.1f/op, want 0", a)
	}
}

func TestLoggerFlightAttachment(t *testing.T) {
	fr := NewFlightRecorder(1<<16, "n")
	var out bytes.Buffer
	lg := NewLogger(&out, slog.LevelDebug, "json")
	AttachFlight(lg, fr)
	t0 := time.Now()
	lg.Info("fine", "k", "v")                 // below warn: not captured
	lg.Warn("trouble", "err", "x")            // captured
	lg.With("session", "s-1").Error("broken") // children share the tee
	t1 := time.Now()
	d := dumpAndRead(t, fr)
	if len(d.Logs) != 2 {
		t.Fatalf("flight captured %d lines, want 2 (warn+error): %+v", len(d.Logs), d.Logs)
	}
	want := []FlightLog{
		{Level: slog.LevelWarn, Line: "msg=trouble err=x"},
		{Level: slog.LevelError, Line: "msg=broken session=s-1"},
	}
	for i, l := range d.Logs {
		if l.Level != want[i].Level || l.Line != want[i].Line {
			t.Errorf("captured line %d = %+v, want %+v", i, l, want[i])
		}
		if l.TimeNS < t0.UnixNano() || l.TimeNS > t1.UnixNano() {
			t.Errorf("captured ts %d outside [%d, %d]", l.TimeNS, t0.UnixNano(), t1.UnixNano())
		}
	}
}

// TestLoggerFlightTeeConcurrent: With children logging from several
// goroutines share one line count and one flight tee (run under -race).
func TestLoggerFlightTeeConcurrent(t *testing.T) {
	fr := NewFlightRecorder(1<<20, "n")
	lg := NewLogger(io.Discard, slog.LevelInfo, "text")
	AttachFlight(lg, fr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := lg.With("g", g)
			for i := 0; i < 50; i++ {
				child.Warn("slow", "i", i)
			}
		}(g)
	}
	wg.Wait()
	d := dumpAndRead(t, fr)
	if LogLines(lg) != 400 || len(d.Logs) != 400 {
		t.Fatalf("LogLines = %d, flight logs = %d, want 400 each", LogLines(lg), len(d.Logs))
	}
	for _, l := range d.Logs {
		if !strings.HasPrefix(l.Line, "msg=slow g=") || !strings.Contains(l.Line, " i=") {
			t.Fatalf("torn flight line %q", l.Line)
		}
	}
}

func TestReadFlightDumpRejects(t *testing.T) {
	fr := NewFlightRecorder(1<<12, "n")
	fr.RecordSpan(SpanRecord{ID: 1, Name: "x", Detail: "y"})
	var buf bytes.Buffer
	if err := fr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// with returns a copy of good with the little-endian value v of n
	// bytes at offset off.
	with := func(off, n int, v uint64) []byte {
		b := append([]byte{}, good...)
		for i := 0; i < n; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", []byte{}, ErrFlightCorrupt},
		{"bad magic", append([]byte("NOTMAGIC"), good[8:]...), ErrFlightCorrupt},
		{"short hdr", good[:10], ErrFlightCorrupt},
		{"cut after version", good[:20], ErrFlightCorrupt},
		{"truncated ring", good[:len(good)-3], ErrFlightCorrupt},
		// The ring starts after the 40-byte fixed header, the node length
		// and the 1-byte node, padded to 48; flip the first frame's kind.
		{"body garbage", with(flightHeaderLen(1), 1, 0xff), ErrFlightCorrupt},
		{"window start >= capacity", with(flightOffWindow, 8, 1<<12<<32), ErrFlightCorrupt},
		{"window size > capacity", with(flightOffWindow, 8, 1<<12+1), ErrFlightCorrupt},
		{"capacity over the limit", with(flightOffCap, 4, flightMaxCap+1), ErrFlightCorrupt},
		{"version 1", with(8, 4, 1), ErrFlightVersion},
		{"version 2", with(8, 4, 2), ErrFlightVersion},
		{"version 99", with(8, 4, 99), ErrFlightVersion},
	}
	for _, c := range cases {
		if _, err := ReadFlightDump(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzFlightDecode asserts the dump reader never panics and fails only
// with its typed errors, whatever bytes it is fed. Run in CI fuzz-smoke.
func FuzzFlightDecode(f *testing.F) {
	fr := NewFlightRecorder(256, "seed-node")
	fr.RecordSpan(SpanRecord{ID: 1, TraceHi: 1, TraceLo: 2, Name: "replay", Detail: "s-1"})
	fr.RecordEvent(Event{Seq: 1, Kind: EvFaultInjected})
	fr.RecordLog(1, slog.LevelWarn, []byte("msg=x"))
	var buf bytes.Buffer
	if err := fr.Dump(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(flightMagic))
	f.Add([]byte{})
	// A small ring written past its end: the window wraps.
	wrapped := NewFlightRecorder(256, "wrap")
	for i := 0; i < 9; i++ {
		wrapped.RecordSpan(SpanRecord{ID: uint64(i + 1), Name: "s", Detail: "dddddddddd"})
	}
	var wbuf bytes.Buffer
	if err := wrapped.Dump(&wbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(wbuf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadFlightDump(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFlightCorrupt) && !errors.Is(err, ErrFlightVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A decoded dump must re-encode without panicking via the
		// recorder API (sanity that decoded records are well-formed).
		if d == nil {
			t.Fatal("nil dump with nil error")
		}
	})
}
