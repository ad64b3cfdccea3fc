package main

import (
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"

	"rmcc/internal/obs"
)

// TestRunFlight renders a dump holding one span, one fault-injected
// event and one warn log line from a logger with a bound session field.
func TestRunFlight(t *testing.T) {
	fr := obs.NewFlightRecorder(1<<16, "node-a")
	fr.RecordSpan(obs.SpanRecord{ID: 1, TraceHi: 0xab, TraceLo: 0xcd, Name: "replay", Detail: "s-1", Duration: 5000})
	fr.RecordEvent(obs.Event{Seq: 7, Kind: obs.EvFaultInjected, Addr: 0x40})
	lg := obs.NewLogger(io.Discard, slog.LevelInfo, "json")
	obs.AttachFlight(lg, fr)
	lg.With("session", "s-1").Warn("checkpoint failed", "error", "disk full")
	path := filepath.Join(t.TempDir(), "flight.rec")
	if err := fr.DumpToFile(path); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := runFlight(&sb, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"flight dump — node node-a  records 3  dropped 0  spans 1  events 1  logs 1\n",
		"trace=00000000000000ab00000000000000cd  replay  s-1\n",
		"event seq=7 kind=fault-injected addr=0x40 v1=0 v2=0\n",
		`[WARN] msg="checkpoint failed" session=s-1 error="disk full"` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if err := runFlight(&sb, filepath.Join(t.TempDir(), "missing.rec")); err == nil {
		t.Error("missing dump file rendered without error")
	}
}
