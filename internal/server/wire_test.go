package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
	"rmcc/internal/sim"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

// captureAccesses records the first n accesses of a built-in workload
// stream.
func captureAccesses(t *testing.T, name string, seed uint64, n int) ([]workload.Access, uint64) {
	t.Helper()
	w, ok := workload.ByName(workload.SizeTest, seed, name)
	if !ok {
		t.Fatalf("workload %s unavailable", name)
	}
	accs := make([]workload.Access, 0, n)
	w.Run(seed, func(a workload.Access) bool {
		accs = append(accs, a)
		return len(accs) < n
	})
	return accs, w.FootprintBytes()
}

// frameAccesses encodes accs as a binary replay body.
func frameAccesses(tb testing.TB, accs []workload.Access) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := trace.NewFrameWriter(&buf, trace.DefaultFrameAccesses)
	for _, a := range accs {
		if err := fw.Append(a); err != nil {
			tb.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayTrace drives the full file path: record an RMTR trace,
// upload it with ReplayTrace (header checked, body sent verbatim), and
// require the same stats as uploading the same accesses with
// ReplayAccessesBinary.
func TestReplayTrace(t *testing.T) {
	const n = 5_000
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	accs, footprint := captureAccesses(t, "mcf", 3, n)

	var rmtr bytes.Buffer
	tw, err := trace.NewWriter(&rmtr, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := tw.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	mk := func() string {
		info, err := c.CreateSession(ctx, server.SessionConfig{
			Mode: "rmcc", Scheme: "morphable", Seed: 3,
			FootprintBytes: footprint, Label: "trace",
		})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return info.ID
	}
	viaTrace, err := c.ReplayTrace(ctx, mk(), bytes.NewReader(rmtr.Bytes()))
	if err != nil {
		t.Fatalf("trace replay: %v", err)
	}
	viaAccesses, err := c.ReplayAccessesBinary(ctx, mk(), accs)
	if err != nil {
		t.Fatalf("binary replay: %v", err)
	}
	viaTrace.SessionID, viaAccesses.SessionID = "", ""
	viaTrace.WallSeconds, viaAccesses.WallSeconds = 0, 0
	if viaTrace != viaAccesses {
		t.Fatalf("trace replay diverges:\ntrace:    %+v\naccesses: %+v", viaTrace, viaAccesses)
	}
	if viaTrace.Accesses != n {
		t.Fatalf("accesses = %d, want %d", viaTrace.Accesses, n)
	}
	if _, err := c.ReplayTrace(ctx, mk(), strings.NewReader("RMTR\x01\x00")); err == nil ||
		!strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 trace: err = %v, want unsupported version 1", err)
	}
}

// TestBinaryReplayErrors: malformed frame streams must surface as 400s
// (typed input errors), and the daemon must stay healthy afterwards.
func TestBinaryReplayErrors(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, server.SessionConfig{FootprintBytes: 1 << 20})
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	// A hostile length prefix: 256 MiB declared payload, rejected from
	// the 8 header bytes alone.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge[0:4], 256<<20)
	binary.LittleEndian.PutUint32(huge[4:8], 1)
	if _, err := c.ReplayBinary(ctx, info.ID, bytes.NewReader(huge)); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("oversized frame: %v, want 400", err)
	}

	// A truncated frame: header promises more payload than the body holds.
	trunc := make([]byte, 8, 12)
	binary.LittleEndian.PutUint32(trunc[0:4], 64)
	binary.LittleEndian.PutUint32(trunc[4:8], 4)
	trunc = append(trunc, 0x00, 0x02, 0x01, 0x02)
	if _, err := c.ReplayBinary(ctx, info.ID, bytes.NewReader(trunc)); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("truncated frame: %v, want 400", err)
	}

	// An NDJSON body mislabeled as binary fails frame decoding, not the
	// session.
	if _, err := c.ReplayBinary(ctx, info.ID, strings.NewReader(`{"addr":1}`+"\n")); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("mislabeled body: %v, want 400", err)
	}

	if err := c.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after bad frames: %v", err)
	}
}

// TestUploadOutgrowingMemory: an upload that touches more pages than the
// session's physical memory holds is a 400 naming the accesses applied
// before it. The access that ran out changes nothing, so the session
// stays listed with those accesses and its next replay matches a direct
// run of the applied ones.
func TestUploadOutgrowingMemory(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	// 1 MiB of footprint gets 18 MiB of physical memory: nine 2 MiB pages.
	info, err := c.CreateSession(ctx, server.SessionConfig{FootprintBytes: 1 << 20, Label: "oom"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	accs := make([]workload.Access, 64)
	for i := range accs {
		accs[i] = workload.Access{Addr: uint64(i)<<30 | 64*uint64(i), Write: i%3 == 0}
	}
	_, err = c.ReplayAccessesBinary(ctx, info.ID, accs)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest ||
		!strings.Contains(ae.Msg, "out of physical memory") || !strings.Contains(ae.Msg, "(9 accesses applied)") {
		t.Fatalf("upload past physical memory: %v, want 400 with 9 accesses applied", err)
	}
	list, err := c.ListSessions(ctx)
	if err != nil || len(list) != 1 || list[0].ID != info.ID || list[0].Accesses != 9 {
		t.Fatalf("listing after the 400: %+v, %v; want the session with 9 accesses", list, err)
	}

	next := workload.Access{Addr: 3<<30 | 5, Write: true}
	got, err := c.ReplayAccessesBinary(ctx, info.ID, []workload.Access{next})
	if err != nil {
		t.Fatalf("replay after the 400: %v", err)
	}
	engCfg := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	engCfg.InitSeed = 1
	cfg := sim.DefaultLifetimeConfig(engCfg)
	lt, err := sim.NewLifetimeChecked("oom", 1<<20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(accs[:9:9], next) {
		if err := lt.Step(a); err != nil {
			t.Fatalf("direct run: %v", err)
		}
	}
	assertSameRun(t, "replay after the 400", lt.Counters(), got)
}

// TestWireMetrics checks the per-wire accounting: the binary request
// counter, a body-byte counter equal to the exact framed body sent, and
// no series for the removed NDJSON wire.
func TestWireMetrics(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	accs, footprint := captureAccesses(t, "canneal", 1, 1_000)

	info, err := c.CreateSession(ctx, server.SessionConfig{
		Mode: "rmcc", Seed: 1, FootprintBytes: footprint, Label: "wire",
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	body := frameAccesses(t, accs)
	if _, err := c.ReplayBinary(ctx, info.ID, bytes.NewReader(body)); err != nil {
		t.Fatalf("binary replay: %v", err)
	}

	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := metricValue(t, text, `rmccd_replay_requests_total{wire="binary"}`); got != 1 {
		t.Errorf("binary replay requests = %v, want 1", got)
	}
	if got := metricValue(t, text, `rmccd_replay_bytes_total{wire="binary"}`); got != float64(len(body)) {
		t.Errorf("binary replay bytes = %v, want the %d-byte body", got, len(body))
	}
	if strings.Contains(text, `wire="ndjson"`) {
		t.Error(`metrics still export a wire="ndjson" series`)
	}
}

func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found", series)
	return 0
}
