package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"rmcc/internal/obs"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
)

// TestTraceHeaderRejection: malformed and oversized X-Rmcc-Trace headers
// are client errors — 400 with a JSON error body, never a 5xx, and never
// any session work.
func TestTraceHeaderRejection(t *testing.T) {
	base := serve(t, server.New(server.Config{}))
	valid := obs.MintTraceContext().String()
	cases := []struct {
		name   string
		header string
	}{
		{"garbage", "not-a-trace-context"},
		{"uppercase hex", strings.ToUpper(valid)},
		{"bad version", "01" + valid[2:]},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"truncated", valid[:54]},
		{"oversized", valid + strings.Repeat("0", 4096)},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, base+"/v1/sessions", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(obs.TraceHeader, tcase.header)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if !strings.Contains(body.Error, obs.TraceHeader) {
				t.Errorf("error %q does not name the header", body.Error)
			}
		})
	}

	// The well-formed context sails through.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/sessions", nil)
	req.Header.Set(obs.TraceHeader, valid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid header rejected: %d", resp.StatusCode)
	}
}

// TestTracePropagationTracez: a client-minted trace context joins the
// request spans AND the replay stage spans into one trace, retrievable as
// a deterministic tree from /debug/tracez?trace=<id> with node stamps.
func TestTracePropagationTracez(t *testing.T) {
	var sb strings.Builder
	lg := obs.NewLogger(&sb, slog.LevelInfo, "json")
	_, c := newTestServer(t, server.Config{
		NodeID: "node-a", ChunkAccesses: 1000, Logger: lg,
	})
	ctx := context.Background()

	tc := obs.MintTraceContext()
	tracedReplay(t, c, tc, 3000)
	// Untraced traffic must stay out of the tree.
	if _, err := c.ListSessions(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Tracez(ctx, tc.TraceID(), 0)
	if err != nil {
		t.Fatalf("tracez: %v", err)
	}
	if resp.Node != "node-a" || resp.Trace != tc.TraceID() {
		t.Fatalf("tracez header wrong: %+v", resp)
	}
	if len(resp.Spans) == 0 {
		t.Fatal("tracez returned no spans for the trace")
	}
	names := map[string]int{}
	for i, sp := range resp.Spans {
		names[sp.Name]++
		if sp.Trace != tc.TraceID() {
			t.Errorf("span %s carries trace %q, want %q", sp.Name, sp.Trace, tc.TraceID())
		}
		if sp.Node != "node-a" {
			t.Errorf("span %s node = %q, want node-a", sp.Name, sp.Node)
		}
		// Satellite: deterministic ordering by (start, span ID).
		if i > 0 {
			prev := resp.Spans[i-1]
			if sp.StartNS < prev.StartNS ||
				(sp.StartNS == prev.StartNS && sp.ID < prev.ID) {
				t.Errorf("spans not sorted by (start, id) at index %d", i)
			}
		}
		// Ingress spans carry the upstream span ID as Remote, with no
		// local parent; everything else parents inside the process.
		if strings.HasPrefix(sp.Name, "http.") {
			if sp.Remote != tc.SpanID || sp.Parent != 0 {
				t.Errorf("ingress span %s remote=%d parent=%d, want remote=%d parent=0",
					sp.Name, sp.Remote, sp.Parent, tc.SpanID)
			}
		} else if sp.Parent == 0 {
			t.Errorf("in-process span %s has no parent", sp.Name)
		}
	}
	// 3000 accesses at chunk 1000 → exactly 3 of each chunk stage span,
	// and one replay span with one stats roll-up.
	if names["http.create"] != 1 || names["http.replay"] != 1 {
		t.Errorf("request spans wrong: %v", names)
	}
	for stage, want := range map[string]int{"queue-wait": 3, "engine-step": 3, "replay": 1, "rollup": 1} {
		if names[stage] != want {
			t.Errorf("%s spans = %d, want %d (all %v)", stage, names[stage], want, names)
		}
	}
	if names["http.list"] != 0 {
		t.Error("untraced list request leaked into the trace")
	}

	// The sampled trace ID is bound onto the session's log lines.
	if !strings.Contains(sb.String(), `"trace":"`+tc.TraceID()+`"`) {
		t.Error("session log lines missing the bound trace ID")
	}

	// Lookup input validation: a non-hex trace ID is a 400.
	if _, err := c.Tracez(ctx, strings.Repeat("z", 32), 0); !isStatus(err, http.StatusBadRequest) {
		t.Errorf("bad trace id lookup: %v, want 400", err)
	}
}

// TestReplayStageCoverage: a replay's stage spans account for its request
// span, so /debug/tracez can say where a replay's time went. The stages
// under the replay span must sum to at least 90% of the http.replay span
// for a server-side workload replay and for binary uploads, where the
// decode stage carries the body read.
func TestReplayStageCoverage(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	tc := obs.MintTraceContext()
	tracedReplay(t, c, tc, 100_000)
	assertStageCoverage(t, c, tc, "workload replay")

	const upload = 32 << 10
	accs, footprint := captureAccesses(t, "canneal", 1, 3*upload)
	info, err := c.CreateSession(ctx, server.SessionConfig{
		Mode: "rmcc", Scheme: "morphable", Seed: 1,
		FootprintBytes: footprint, Label: "canneal",
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		tc := obs.MintTraceContext()
		if _, err := c.WithTraceContext(tc).ReplayAccessesBinary(ctx, info.ID, accs[i*upload:(i+1)*upload]); err != nil {
			t.Fatalf("upload %d: %v", i+1, err)
		}
		assertStageCoverage(t, c, tc, fmt.Sprintf("upload %d", i+1))
	}
}

// assertStageCoverage requires the stage spans under trace tc's replay
// span to cover at least 90% of its http.replay span. Stages run one
// after another on the handler, so they can never sum past it.
func assertStageCoverage(t *testing.T, c *client.Client, tc obs.TraceContext, label string) {
	t.Helper()
	resp, err := c.Tracez(context.Background(), tc.TraceID(), 0)
	if err != nil {
		t.Fatalf("%s: tracez: %v", label, err)
	}
	var requestUS, replayID uint64
	for _, sp := range resp.Spans {
		switch sp.Name {
		case "http.replay":
			requestUS = sp.DurationUS
		case "replay":
			replayID = sp.ID
		}
	}
	if requestUS == 0 || replayID == 0 {
		t.Fatalf("%s: trace holds no http.replay or replay span", label)
	}
	stages := map[string]uint64{}
	var stagesUS uint64
	for _, sp := range resp.Spans {
		if sp.Parent != replayID {
			continue
		}
		switch sp.Name {
		case "queue-wait", "engine-step", "decode", "rollup", "encode":
			stages[sp.Name] += sp.DurationUS
			stagesUS += sp.DurationUS
		default:
			t.Errorf("%s: unexpected span %q under the replay span", label, sp.Name)
		}
	}
	ratio := float64(stagesUS) / float64(requestUS)
	t.Logf("%s: stages cover %.3f of %d µs: %v", label, ratio, requestUS, stages)
	if ratio < 0.9 || ratio > 1 {
		t.Errorf("%s: stage spans sum to %d µs, %.3f of the %d µs request span; want [0.9, 1]",
			label, stagesUS, ratio, requestUS)
	}
}

// TestUnsampledTraceSkipsRing: an unsampled context still parses and
// propagates in logs-only form but must associate no stored span with it.
func TestUnsampledTraceSkipsRing(t *testing.T) {
	srv, c := newTestServer(t, server.Config{ChunkAccesses: 1000})
	tc := obs.MintTraceContext()
	tc.Sampled = false
	tracedReplay(t, c, tc, 2000)
	for _, sp := range srv.Spans().SpansForTrace(tc.TraceHi, tc.TraceLo) {
		t.Errorf("unsampled trace recorded span %q", sp.Name)
	}
}

// TestFlightzEndpoint: the flight recorder's summary and binary dump are
// served over the service mux, and the dump round-trips through the
// decoder with the trace's spans inside.
func TestFlightzEndpoint(t *testing.T) {
	fr := obs.NewFlightRecorder(1<<20, "node-a")
	_, c := newTestServer(t, server.Config{
		NodeID: "node-a", ChunkAccesses: 1000, Flight: fr,
	})
	ctx := context.Background()

	tc := obs.MintTraceContext()
	tracedReplay(t, c, tc, 2000)

	fz, err := c.Flightz(ctx)
	if err != nil {
		t.Fatalf("flightz: %v", err)
	}
	if fz.Node != "node-a" || fz.Records == 0 || fz.Bytes == 0 {
		t.Fatalf("flightz summary wrong: %+v", fz)
	}
	if fz.CapBytes != 1<<20 {
		t.Fatalf("flightz cap = %d, want %d", fz.CapBytes, 1<<20)
	}

	dump, err := c.FlightDump(ctx)
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	if dump.Node != "node-a" || dump.Records != fr.Records() {
		t.Fatalf("dump header wrong: node=%q records=%d", dump.Node, dump.Records)
	}
	// The distributed trace survives into the postmortem format.
	got := map[string]bool{}
	for _, sp := range dump.Spans {
		if sp.TraceID() == tc.TraceID() {
			got[sp.Name] = true
		}
	}
	for _, want := range []string{"http.create", "http.replay", "replay", "engine-step"} {
		if !got[want] {
			t.Errorf("flight dump missing traced span %q (got %v)", want, got)
		}
	}
}

// TestOneRecordStore: the daemon keeps finished spans in one store, so
// after a traced replay wraps a small store, /debug/tracez and the
// /debug/flightz dump hold the same spans of the trace, and every surface
// reports the same drop count.
func TestOneRecordStore(t *testing.T) {
	base := serve(t, server.New(server.Config{ChunkAccesses: 100, Flight: obs.NewFlightRecorder(2048, "n")}))
	ctx := context.Background()
	tc := obs.MintTraceContext()
	c := client.New(base)
	tracedReplay(t, c, tc, 3000)

	tz, err := c.Tracez(ctx, tc.TraceID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := c.FlightDump(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fromTracez, fromDump := map[uint64]string{}, map[uint64]string{}
	for _, sp := range tz.Spans {
		fromTracez[sp.ID] = sp.Name
	}
	for _, sp := range dump.Spans {
		if sp.TraceID() == tc.TraceID() {
			fromDump[sp.ID] = sp.Name
		}
	}
	if len(fromTracez) == 0 || !reflect.DeepEqual(fromTracez, fromDump) {
		t.Fatalf("tracez spans %v, dump spans %v: want the same non-empty set", fromTracez, fromDump)
	}

	var status server.StatuszInfo
	getJSON(t, base+"/statusz", &status)
	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var droppedSeries []string
	for _, line := range strings.Split(text, "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && strings.HasSuffix(name, "_dropped_total") {
			droppedSeries = append(droppedSeries, name)
		}
	}
	if len(droppedSeries) != 1 || droppedSeries[0] != "rmccd_flight_dropped_total" {
		t.Fatalf("/metrics dropped series = %v, want only rmccd_flight_dropped_total", droppedSeries)
	}
	metric := metricValue(t, text, "rmccd_flight_dropped_total")
	if tz.SpansDropped == 0 || status.FlightDropped != tz.SpansDropped ||
		dump.Dropped != tz.SpansDropped || uint64(metric) != tz.SpansDropped {
		t.Fatalf("drop counts disagree or the store never wrapped: tracez %d, statusz %d, dump %d, metric %v",
			tz.SpansDropped, status.FlightDropped, dump.Dropped, metric)
	}
}

// tracedReplay creates a session and replays n workload accesses on it,
// both under trace context tc.
func tracedReplay(t *testing.T, c *client.Client, tc obs.TraceContext, n uint64) {
	t.Helper()
	ctx := context.Background()
	traced := c.WithTraceContext(tc)
	info, err := traced.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := traced.ReplayWorkload(ctx, info.ID, n, 0, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
}
