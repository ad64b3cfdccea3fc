package obs

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// splitTS cuts the timestamp out of a log line that starts with prefix
// and requires it to be UTC RFC 3339 with nanoseconds. It returns the
// line with the timestamp value removed.
func splitTS(t *testing.T, line, prefix, end string) string {
	t.Helper()
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("line does not start with %q: %q", prefix, line)
	}
	n := strings.Index(line[len(prefix):], end)
	if n < 0 {
		t.Fatalf("no end to the timestamp in %q", line)
	}
	ts := line[len(prefix) : len(prefix)+n]
	if pt, err := time.Parse(time.RFC3339Nano, ts); err != nil || pt.Location() != time.UTC || ts[len(ts)-1] != 'Z' {
		t.Errorf("ts %q is not UTC RFC 3339: %v", ts, err)
	}
	return prefix + line[len(prefix)+n:]
}

// TestLoggerJSONGolden pins the JSON line schema byte for byte, ts
// aside: ts, level, msg, bound fields, call-site fields, in order, with
// lower-case levels and durations as Go duration strings.
func TestLoggerJSONGolden(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, slog.LevelDebug, "json")
	lg.With("session", "s-00000001", "shard", 3).
		Info("session created", "workload", "canneal", "seed", uint64(7), "rate", 0.25, "ok", true,
			"deadline", 10*time.Second)
	got := splitTS(t, sb.String(), `{"ts":"`, `"`)
	want := `{"ts":"","level":"info","msg":"session created",` +
		`"session":"s-00000001","shard":3,"workload":"canneal","seed":7,"rate":0.25,"ok":true,` +
		`"deadline":"10s"}` + "\n"
	if got != want {
		t.Errorf("line:\n got %q\nwant %q", got, want)
	}
	if LogLines(lg) != 1 {
		t.Errorf("LogLines = %d, want 1", LogLines(lg))
	}
}

// TestLoggerTextGolden pins the text encoding and its quoting rule.
func TestLoggerTextGolden(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, slog.LevelInfo, "text")
	lg.Warn("replay failed", "session", "s-01", "error", "line 3: bad json", "applied", uint64(42))
	got := splitTS(t, sb.String(), "ts=", " ")
	want := `ts= level=warn msg="replay failed" session=s-01 ` +
		`error="line 3: bad json" applied=42` + "\n"
	if got != want {
		t.Errorf("line:\n got %q\nwant %q", got, want)
	}
}

// TestLoggerJSONEscaping feeds hostile values through the JSON encoder
// and requires the output to be a valid JSON document that round-trips.
func TestLoggerJSONEscaping(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, slog.LevelDebug, "json")
	nasty := "a\"b\\c\nd\te\x01f é"
	lg.Info(nasty, "path", nasty)
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%q", err, sb.String())
	}
	if doc["msg"] != nasty || doc["path"] != nasty {
		t.Errorf("round trip lost data: msg=%q path=%q want %q", doc["msg"], doc["path"], nasty)
	}
}

// TestLoggerLevelGate checks filtering, the Enabled fast path, and that
// LogLines counts the lines of With children but not filtered ones.
func TestLoggerLevelGate(t *testing.T) {
	var sb strings.Builder
	ctx := context.Background()
	lg := NewLogger(&sb, slog.LevelWarn, "text")
	child := lg.With("k", "v")
	lg.Debug("nope")
	child.Info("nope")
	if sb.Len() != 0 || LogLines(lg) != 0 {
		t.Fatalf("below-level lines emitted: %q", sb.String())
	}
	if lg.Enabled(ctx, slog.LevelInfo) || !lg.Enabled(ctx, slog.LevelWarn) || !child.Enabled(ctx, slog.LevelError) {
		t.Error("Enabled gate wrong")
	}
	lg.Error("yes")
	child.Warn("yes")
	if LogLines(lg) != 2 || LogLines(child) != 2 {
		t.Errorf("LogLines = %d (child %d), want 2", LogLines(lg), LogLines(child))
	}
}

// TestDiscardLogger: the disabled state writes nothing, reports every
// level disabled, and stays disabled through With.
func TestDiscardLogger(t *testing.T) {
	ctx := context.Background()
	lg := DiscardLogger()
	child := lg.With("k", "v")
	child.Error("ignored", "k", 1)
	for _, l := range []*slog.Logger{lg, child} {
		if l.Enabled(ctx, slog.LevelError) {
			t.Error("discard logger reports Enabled at error level")
		}
		if LogLines(l) != 0 {
			t.Error("discard logger counts lines")
		}
	}
}

// TestLoggerBadPairs: non-string keys and odd argument counts degrade
// gracefully instead of panicking or dropping data.
func TestLoggerBadPairs(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, slog.LevelDebug, "text")
	args := []any{"k1", 1, "dangling"} // a slice: vet rejects the odd count in a literal call
	lg.Info("odd", args...)
	if !strings.Contains(sb.String(), "!BADKEY=dangling") {
		t.Errorf("dangling value lost: %q", sb.String())
	}
}

// TestLogSampler checks the admit-1-in-N contract and concurrency
// safety of the counter.
func TestLogSampler(t *testing.T) {
	s := NewLogSampler(10)
	admitted := 0
	for i := 0; i < 100; i++ {
		if s.Allow() {
			admitted++
		}
	}
	if admitted != 10 {
		t.Errorf("admitted %d of 100 at 1-in-10, want 10", admitted)
	}
	if s.Count() != 100 {
		t.Errorf("Count = %d, want 100", s.Count())
	}

	var nilSampler *LogSampler
	if !nilSampler.Allow() {
		t.Error("nil sampler must admit everything")
	}

	// Concurrent Allow must neither race nor lose counts.
	s2 := NewLogSampler(7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s2.Allow()
			}
		}()
	}
	wg.Wait()
	if s2.Count() != 8000 {
		t.Errorf("concurrent Count = %d, want 8000", s2.Count())
	}
}

// TestParseLogFlags covers -log-level and -log-format as the daemons
// declare them, through flag.TextVar.
func TestParseLogFlags(t *testing.T) {
	parse := func(args ...string) (slog.Level, LogFormat, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var level slog.Level
		var format LogFormat
		fs.TextVar(&level, "log-level", slog.LevelInfo, "")
		fs.TextVar(&format, "log-format", LogFormat("text"), "")
		err := fs.Parse(args)
		return level, format, err
	}
	if l, f, err := parse(); err != nil || l != slog.LevelInfo || f != "text" {
		t.Errorf("defaults = %v, %q, %v", l, f, err)
	}
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		if got, _, err := parse("-log-level", s); err != nil || got != want {
			t.Errorf("-log-level %s = %v, %v", s, got, err)
		}
	}
	if _, f, err := parse("-log-format", "json"); err != nil || f != "json" {
		t.Errorf("-log-format json = %q, %v", f, err)
	}
	if _, _, err := parse("-log-level", "loud"); err == nil {
		t.Error("-log-level accepted garbage")
	}
	if _, _, err := parse("-log-format", "xml"); err == nil {
		t.Error("-log-format accepted garbage")
	}
}
