package server_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rmcc/internal/obs"
	"rmcc/internal/server"
)

// TestStageHistogramsInMetrics: after a workload replay and a binary
// upload, the per-stage span histograms (queue-wait, engine-step, decode,
// rollup, encode) and per-endpoint SLO series must appear populated in
// /metrics.
func TestStageHistogramsInMetrics(t *testing.T) {
	_, c := newTestServer(t, server.Config{ChunkAccesses: 1000})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// ?progress forces frame encodes, populating the encode stage.
	if _, err := c.ReplayWorkload(ctx, info.ID, 5000, 1000, func(uint64) {}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Two RMTR frames (4096 + 904 accesses) populate the decode stage.
	accs, _ := captureAccesses(t, "canneal", 1, 5000)
	if _, err := c.ReplayAccessesBinary(ctx, info.ID, accs); err != nil {
		t.Fatalf("binary replay: %v", err)
	}
	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`rmccd_replay_stage_duration_us_count{stage="queue-wait"}`,
		`rmccd_replay_stage_duration_us_count{stage="engine-step"}`,
		`rmccd_replay_stage_duration_us_count{stage="decode"}`,
		`rmccd_replay_stage_duration_us_count{stage="rollup"}`,
		`rmccd_replay_stage_duration_us_count{stage="encode"}`,
		`rmccd_request_duration_us_count{endpoint="replay"} 2`,
		`rmccd_request_duration_us_count{endpoint="create"} 1`,
		`rmccd_requests_total{class="2xx",endpoint="replay"} 2`,
		`rmccd_queue_depth_at_enqueue_count`,
		`rmccd_uptime_seconds`,
		`rmccd_spans_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The parser must read our own exposition. engine-step and queue-wait
	// observe one sample per applied batch (5 chunks of 1000, then 2
	// frames), decode one per frame read (2 frames, then EOF), and rollup
	// one per replay.
	parsed, err := obs.ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse own metrics: %v", err)
	}
	for stage, want := range map[string]float64{"engine-step": 7, "queue-wait": 7, "decode": 3, "rollup": 2} {
		if v, ok := parsed.Value("rmccd_replay_stage_duration_us_count", obs.L("stage", stage)); !ok || v != want {
			t.Errorf("%s count = %v,%v, want %v", stage, v, ok, want)
		}
	}
	// 5 progress frames (every 1000) + 1 result document... the final
	// document is unframed JSON here? No: progress mode streams, so the
	// result frame is encoded too → 5 progress crossings + 1 result ≥ 5.
	if v, ok := parsed.Value("rmccd_replay_stage_duration_us_count", obs.L("stage", "encode")); !ok || v < 5 {
		t.Errorf("encode count = %v,%v, want >= 5", v, ok)
	}
}

// TestSessionInfoLiveRates: listings carry live engine-rate mirrors and
// per-chunk latency quantiles after a replay, without touching the
// replay lease.
func TestSessionInfoLiveRates(t *testing.T) {
	_, c := newTestServer(t, server.Config{ChunkAccesses: 1000})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.CtrMissRate != 0 || info.ReplayP99us != 0 {
		t.Errorf("fresh session reports non-zero live stats: %+v", info)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 10_000, 0, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	list, err := c.ListSessions(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("list: %v, %v", list, err)
	}
	got := list[0]
	if got.CtrMissRate <= 0 || got.CtrMissRate > 1 {
		t.Errorf("ctr_miss_rate = %v, want (0,1]", got.CtrMissRate)
	}
	if got.ReplayP50us <= 0 || got.ReplayP99us < got.ReplayP50us {
		t.Errorf("latency quantiles implausible: p50=%v p99=%v", got.ReplayP50us, got.ReplayP99us)
	}
}

// TestDebugEndpoints drives /statusz, /debug/tracez, and /debug/pprof on
// the separate debug handler after real traffic.
func TestDebugEndpoints(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 2, ChunkAccesses: 1000})
	debug := httptest.NewServer(srv.DebugHandler())
	defer debug.Close()
	ctx := context.Background()

	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 5000, 0, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// /statusz
	var status server.StatuszInfo
	getJSON(t, debug.URL+"/statusz", &status)
	if status.Sessions != 1 || status.Shards != 2 || status.MaxSessions == 0 {
		t.Errorf("statusz wrong: %+v", status)
	}
	if status.GoVersion == "" || status.StartedAt == "" {
		t.Errorf("statusz missing build info: %+v", status)
	}
	occ := 0
	for _, n := range status.ShardOccupancy {
		occ += n
	}
	if occ != 1 {
		t.Errorf("shard occupancy sums to %d, want 1", occ)
	}
	if status.SpansTotal == 0 {
		t.Error("statusz reports zero spans after a replay")
	}

	// /debug/tracez
	var tz server.TracezResponse
	getJSON(t, debug.URL+"/debug/tracez?n=50", &tz)
	if tz.TotalSpans == 0 || len(tz.Slowest) == 0 {
		t.Fatalf("tracez empty: %+v", tz)
	}
	names := map[string]bool{}
	for i, sp := range tz.Slowest {
		names[sp.Name] = true
		if i > 0 && sp.DurationUS > tz.Slowest[i-1].DurationUS {
			t.Errorf("tracez not sorted by duration: %+v", tz.Slowest)
		}
	}
	for _, want := range []string{"replay", "engine-step", "queue-wait"} {
		if !names[want] {
			t.Errorf("tracez missing %q spans (got %v)", want, names)
		}
	}

	// Replay chunk spans must parent under the replay span, which parents
	// under the request span.
	byID := map[uint64]server.TracezSpan{}
	for _, sp := range tz.Slowest {
		byID[sp.ID] = sp
	}
	for _, sp := range tz.Slowest {
		if sp.Name == "engine-step" {
			parent, ok := byID[sp.Parent]
			if !ok || parent.Name != "replay" {
				t.Errorf("engine-step span parent = %+v, want a replay span", parent)
			}
		}
		if sp.Name == "replay" && sp.Parent != 0 {
			if parent, ok := byID[sp.Parent]; ok && parent.Name != "http.replay" {
				t.Errorf("replay span parent = %+v, want http.replay", parent)
			}
		}
	}

	// tracez input validation
	if resp, err := http.Get(debug.URL + "/debug/tracez?n=0"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tracez n=0: %v %v, want 400", resp.Status, err)
	}

	// /debug/pprof/ index and a profile
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get(debug.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestStructuredLogSchema: daemon logs are parseable JSON lines carrying
// the bound session fields, and hot-path chunk lines are debug-sampled.
func TestStructuredLogSchema(t *testing.T) {
	var sb strings.Builder
	lg := obs.NewLogger(&sb, slog.LevelDebug, "json")
	_, c := newTestServer(t, server.Config{ChunkAccesses: 500, Logger: lg, LogSampleEvery: 1})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 2000, 0, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	msgs := map[string]int{}
	for _, line := range lines {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line is not JSON: %v\n%q", err, line)
		}
		msg, _ := doc["msg"].(string)
		msgs[msg]++
		if msg == "session created" || msg == "replay complete" || msg == "chunk applied" || msg == "session evicted" {
			if doc["session"] != info.ID {
				t.Errorf("%q line missing session field: %q", msg, line)
			}
			if doc["workload"] != "canneal" {
				t.Errorf("%q line missing workload field: %q", msg, line)
			}
		}
	}
	if msgs["session created"] != 1 || msgs["replay complete"] != 1 || msgs["session evicted"] != 1 {
		t.Errorf("lifecycle lines wrong: %v", msgs)
	}
	// 2000 accesses at chunk 500 with sampling 1-in-1 → 4 chunk lines.
	if msgs["chunk applied"] != 4 {
		t.Errorf("chunk applied lines = %d, want 4", msgs["chunk applied"])
	}
	if obs.LogLines(lg) != uint64(len(lines)) {
		t.Errorf("LogLines = %d, emitted %d", obs.LogLines(lg), len(lines))
	}
}

// TestLogSamplingOnChunks: with the default sampler, a many-chunk replay
// emits far fewer chunk lines than chunks.
func TestLogSamplingOnChunks(t *testing.T) {
	var sb strings.Builder
	lg := obs.NewLogger(&sb, slog.LevelDebug, "json")
	_, c := newTestServer(t, server.Config{ChunkAccesses: 100, Logger: lg, LogSampleEvery: 8})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 3200, 0, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	chunkLines := strings.Count(sb.String(), `"msg":"chunk applied"`)
	// 32 chunks sampled 1-in-8 → 4 lines.
	if chunkLines != 4 {
		t.Errorf("sampled chunk lines = %d, want 4", chunkLines)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
