package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// newTestServer boots a daemon on an httptest listener.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	return srv, client.New(serve(t, srv))
}

// serve runs srv on an httptest listener until the test ends and returns
// the listener's base URL.
func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

func testSession() server.SessionConfig {
	return server.SessionConfig{
		Mode:     "rmcc",
		Scheme:   "morphable",
		Seed:     1,
		Workload: "canneal",
		Size:     "test",
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.ID == "" || info.Workload != "canneal" || info.Mode != "rmcc" {
		t.Fatalf("bad session info: %+v", info)
	}

	stats, err := c.ReplayWorkload(ctx, info.ID, 5000, 0, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Accesses != 5000 {
		t.Fatalf("accesses = %d, want 5000", stats.Accesses)
	}
	if stats.Engine.Reads == 0 {
		t.Fatal("no engine reads recorded")
	}

	// A second replay continues the same stream: cumulative accesses.
	stats, err = c.ReplayWorkload(ctx, info.ID, 5000, 0, nil)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if stats.Accesses != 10000 {
		t.Fatalf("cumulative accesses = %d, want 10000", stats.Accesses)
	}

	snap, err := c.Snapshot(ctx, info.ID)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snap.Stats.Accesses != 10000 {
		t.Fatalf("snapshot accesses = %d, want 10000", snap.Stats.Accesses)
	}
	if snap.Manifest.Tool != "rmccd" || snap.Manifest.ConfigHash == "" {
		t.Fatalf("bad manifest: %+v", snap.Manifest)
	}

	list, err := c.ListSessions(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("list = %v, %v", list, err)
	}

	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Snapshot(ctx, info.ID); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("snapshot after delete: %v, want 404", err)
	}
}

// TestServiceMatchesDirectRun is the no-drift acceptance criterion: a
// replay through the daemon produces stats bit-identical to RunLifetime
// over the same seed and workload — via the server-side generator AND via
// a binary-frame upload of the same accesses. The daemon runs with the full
// observability stack enabled (debug-level JSON logging plus the
// always-on span recording), proving instrumentation cannot perturb
// simulation results.
func TestServiceMatchesDirectRun(t *testing.T) {
	const n = 20_000
	_, c := newTestServer(t, server.Config{
		Logger: obs.NewLogger(io.Discard, slog.LevelDebug, "json"),
	})
	ctx := context.Background()

	direct := directRun(t, n)

	// Server-side generator path.
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	viaWorkload, err := c.ReplayWorkload(ctx, info.ID, n, 0, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	assertSameRun(t, "workload shortcut", direct, viaWorkload)
	assertSnapshotSameRun(t, c, info.ID, "workload shortcut", direct)

	// Upload path: capture the same stream and send it as RMTR frames.
	accs, footprint := captureAccesses(t, "canneal", 1, n)
	info2, err := c.CreateSession(ctx, server.SessionConfig{
		Mode: "rmcc", Scheme: "morphable", Seed: 1,
		FootprintBytes: footprint, Label: "canneal",
	})
	if err != nil {
		t.Fatalf("create upload session: %v", err)
	}
	viaUpload, err := c.ReplayAccessesBinary(ctx, info2.ID, accs)
	if err != nil {
		t.Fatalf("binary replay: %v", err)
	}
	assertSameRun(t, "binary upload", direct, viaUpload)
	assertSnapshotSameRun(t, c, info2.ID, "binary upload", direct)
}

// directRun simulates testSession's first n accesses in-process, outside
// the service.
func directRun(t *testing.T, n uint64) sim.LifetimeResult {
	t.Helper()
	w, ok := workload.ByName(workload.SizeTest, 1, "canneal")
	if !ok {
		t.Fatal("canneal unavailable")
	}
	engCfg := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	engCfg.InitSeed = 1
	cfg := sim.DefaultLifetimeConfig(engCfg)
	cfg.MaxAccesses = n
	cfg.Seed = 1
	return sim.RunLifetime(w, cfg)
}

// assertSnapshotSameRun requires the session's stats snapshot, a second
// roll-up path, to match the direct run too.
func assertSnapshotSameRun(t *testing.T, c *client.Client, id, label string, direct sim.LifetimeResult) {
	t.Helper()
	snap, err := c.Snapshot(context.Background(), id)
	if err != nil {
		t.Fatalf("%s snapshot: %v", label, err)
	}
	assertSameRun(t, label+" snapshot", direct, snap.Stats)
}

func assertSameRun(t *testing.T, label string, direct sim.LifetimeResult, got server.ReplayStats) {
	t.Helper()
	if got.Accesses != direct.Accesses {
		t.Fatalf("%s: accesses = %d, direct %d", label, got.Accesses, direct.Accesses)
	}
	if got.LLCMissReads != direct.LLCMissReads || got.LLCMissWrites != direct.LLCMissWrites {
		t.Fatalf("%s: LLC misses %d/%d, direct %d/%d", label,
			got.LLCMissReads, got.LLCMissWrites, direct.LLCMissReads, direct.LLCMissWrites)
	}
	if !reflect.DeepEqual(got.Engine, direct.Engine) {
		t.Fatalf("%s: engine stats diverge from direct run\nservice: %+v\ndirect:  %+v",
			label, got.Engine, direct.Engine)
	}
	if got.MaxCounter != direct.MaxCounter {
		t.Fatalf("%s: max counter %d, direct %d", label, got.MaxCounter, direct.MaxCounter)
	}
}

func TestProgressFrames(t *testing.T) {
	_, c := newTestServer(t, server.Config{ChunkAccesses: 1000})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var frames []uint64
	stats, err := c.ReplayWorkload(ctx, info.ID, 10_000, 2_000, func(n uint64) {
		frames = append(frames, n)
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Accesses != 10_000 {
		t.Fatalf("accesses = %d", stats.Accesses)
	}
	if len(frames) < 3 {
		t.Fatalf("got %d progress frames (%v), want several", len(frames), frames)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i] <= frames[i-1] {
			t.Fatalf("progress not monotonic: %v", frames)
		}
	}
}

// TestCancelledReplaysResumeStream: a workload replay the client cuts off
// mid-batch must leave the session's stream at exactly the accesses it
// applied. Three cancellations, each followed by a short replay, end
// bit-identical to one direct run of the session's total.
func TestCancelledReplaysResumeStream(t *testing.T) {
	// Batches long enough that a cut lands inside one: the client cancels
	// on the first progress frame, while the server steps the second batch.
	_, c := newTestServer(t, server.Config{ChunkAccesses: 20_000})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var stats server.ReplayStats
	for i := 0; i < 3; i++ {
		cctx, cancel := context.WithCancel(ctx)
		_, err := c.ReplayWorkload(cctx, info.ID, 1_000_000, 1, func(uint64) { cancel() })
		cancel()
		if err == nil {
			t.Fatalf("cut %d: replay finished despite the cancel", i)
		}
		// The handler may still hold the lease while it notices the cut.
		for {
			stats, err = c.ReplayWorkload(ctx, info.ID, 1000, 0, nil)
			if !isStatus(err, http.StatusConflict) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("replay after cut %d: %v", i, err)
		}
	}
	t.Logf("session ended at %d accesses", stats.Accesses)
	assertSameRun(t, "after 3 cancelled replays", directRun(t, stats.Accesses), stats)
}

func TestErrorStatuses(t *testing.T) {
	base := serve(t, server.New(server.Config{}))
	c := client.New(base)
	ctx := context.Background()

	// Unknown workload → 400.
	_, err := c.CreateSession(ctx, server.SessionConfig{Workload: "nope"})
	if !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown workload: %v, want 400", err)
	}
	// No workload and no footprint → 400.
	_, err = c.CreateSession(ctx, server.SessionConfig{Mode: "rmcc"})
	if !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("missing footprint: %v, want 400", err)
	}
	// Invalid engine config (bad counter cache) → 400 via Config.Validate.
	bad := engine.DefaultConfig(engine.RMCC, counter.Morphable, 0)
	bad.CounterCacheBytes = -5
	_, err = c.CreateSession(ctx, server.SessionConfig{
		FootprintBytes: 1 << 20, Engine: &bad,
	})
	if !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("invalid engine config: %v, want 400", err)
	}
	// Unknown session → 404.
	_, err = c.ReplayWorkload(ctx, "s-missing", 10, 0, nil)
	if !isStatus(err, http.StatusNotFound) {
		t.Fatalf("missing session: %v, want 404", err)
	}
	// Replay on a session with no bound workload → 400.
	info, err := c.CreateSession(ctx, server.SessionConfig{FootprintBytes: 1 << 20})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_, err = c.ReplayWorkload(ctx, info.ID, 10, 0, nil)
	if !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("unbound workload replay: %v, want 400", err)
	}
	// A body that is not RMTR frames → 415 naming the binary content type
	// and the converter, refused before the session is touched.
	for _, ctype := range []string{server.ContentTypeNDJSON, ""} {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+info.ID+"/replay",
			strings.NewReader("{\"addr\":4096}\n"))
		if err != nil {
			t.Fatal(err)
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q body: status %d, want 415", ctype, resp.StatusCode)
		}
		for _, want := range []string{server.ContentTypeBinaryReplay, "rmcc-trace -encode"} {
			if !strings.Contains(string(msg), want) {
				t.Errorf("415 message %s does not name %q", msg, want)
			}
		}
	}
	snap, err := c.Snapshot(ctx, info.ID)
	if err != nil {
		t.Fatalf("snapshot after refused uploads: %v", err)
	}
	if snap.Stats.Accesses != 0 {
		t.Fatalf("refused uploads applied %d accesses", snap.Stats.Accesses)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after bad input: %v", err)
	}
}

// TestCreateRejectsInvalidSessionID: a router-assigned ?id= becomes a
// checkpoint file name, so any ID outside the strict "s-" plus 1-16
// lowercase hex digits shape is a 400 that leaves no file behind.
func TestCreateRejectsInvalidSessionID(t *testing.T) {
	dir := t.TempDir()
	base := serve(t, server.New(server.Config{SnapshotDir: dir}))
	body, err := json.Marshal(testSession())
	if err != nil {
		t.Fatal(err)
	}
	create := func(id string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions?id="+url.QueryEscape(id),
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, id := range []string{"../x", "S-1", "s-", "s-" + strings.Repeat("a", 17), "s-0g"} {
		if code := create(id); code != http.StatusBadRequest {
			t.Errorf("create ?id=%q: status %d, want 400", id, code)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("rejected creates left %d files in the snapshot dir", len(entries))
	}
	// The longest valid shape is accepted and checkpointed under its name.
	valid := "s-" + strings.Repeat("a", 16)
	if code := create(valid); code != http.StatusCreated {
		t.Fatalf("create ?id=%q: status %d, want 201", valid, code)
	}
	if _, err := os.Stat(filepath.Join(dir, valid+".snap")); err != nil {
		t.Fatalf("valid create wrote no checkpoint: %v", err)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	srv, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	srv.BeginDrain()
	if err := c.Health(ctx); !isStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("healthz while draining: %v, want 503", err)
	}
	if _, err := c.CreateSession(ctx, testSession()); !isStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("create while draining: %v, want 503", err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 10, 0, nil); !isStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("replay while draining: %v, want 503", err)
	}
}

// TestDrainDeadlineAbortsReplay: ForceCancel (rmccd's drain deadline)
// aborts a running workload replay with 503, counts it as cancelled, and
// releases the session's lease, so the session answers snapshots again.
func TestDrainDeadlineAbortsReplay(t *testing.T) {
	srv, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	replayed := make(chan error, 1)
	go func() {
		_, err := c.ReplayWorkload(ctx, info.ID, 1_000_000_000, 0, nil)
		replayed <- err
	}()
	// Wait until the replay has applied a batch.
	for {
		list, err := c.ListSessions(ctx)
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(list) == 1 && list[0].Accesses > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	srv.ForceCancel()
	err = <-replayed
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable ||
		ae.Msg != "replay aborted: drain deadline expired" {
		t.Fatalf("replay under ForceCancel: %v, want 503 replay aborted: drain deadline expired", err)
	}
	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	pm, err := obs.ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pm.Value("rmccd_replays_total", obs.L("status", "cancelled")); !ok || v != 1 {
		t.Fatalf("rmccd_replays_total{status=cancelled} = %v (ok=%v), want 1", v, ok)
	}
	if _, err := c.Snapshot(ctx, info.ID); err != nil {
		t.Fatalf("snapshot after the aborted replay: %v, want 200", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 1000, 0, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	text, err := c.RawMetrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"rmccd_sessions_created_total 1",
		"rmccd_sessions_active 1",
		"rmccd_replays_total{status=\"ok\"} 1",
		"rmccd_replay_accesses_total 1000",
		"rmccd_build_info",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConcurrentSessions overlaps create/replay/snapshot/delete across
// many goroutines — the -race lifecycle test. Every session must complete
// its replay with the exact requested access count.
func TestConcurrentSessions(t *testing.T) {
	_, c := newTestServer(t, server.Config{ChunkAccesses: 512})
	ctx := context.Background()
	const clients = 12
	const n = 4000

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := c.CreateSession(ctx, testSession())
			if err != nil {
				errs <- err
				return
			}
			stats, err := c.ReplayWorkload(ctx, info.ID, n, 0, nil)
			if err != nil {
				errs <- err
				return
			}
			if stats.Accesses != n {
				errs <- &client.APIError{Status: 500, Msg: "short replay"}
				return
			}
			if _, err := c.Snapshot(ctx, info.ID); err != nil {
				errs <- err
				return
			}
			if err := c.DeleteSession(ctx, info.ID); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client: %v", err)
	}

	list, err := c.ListSessions(ctx)
	if err != nil || len(list) != 0 {
		t.Fatalf("leftover sessions: %v, %v", list, err)
	}
}

// TestConcurrentReplaySameSession: exactly one of two overlapping replays
// on one session may win; the loser gets 409.
func TestConcurrentReplaySameSession(t *testing.T) {
	_, c := newTestServer(t, server.Config{ChunkAccesses: 256})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const racers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount, busyCount := 0, 0
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.ReplayWorkload(ctx, info.ID, 50_000, 0, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				okCount++
			case isStatus(err, http.StatusConflict):
				busyCount++
			default:
				t.Errorf("unexpected replay error: %v", err)
			}
		}()
	}
	wg.Wait()
	if okCount == 0 {
		t.Fatal("no replay succeeded")
	}
	if okCount+busyCount != racers {
		t.Fatalf("ok=%d busy=%d, want %d total", okCount, busyCount, racers)
	}
}

// TestOneOwnerPerSession: the replay lease is a session's one owner.
// Four clients, each with its own transport and so its own server-side
// connection goroutines, replay one workload-bound session concurrently
// and snapshot its stats after every replay, while the periodic
// checkpointer takes the lease every millisecond. Each collision is a
// 409, which the clients retry, and the session ends bit-identical to one
// direct run of every access; under -race, any engine touch outside the
// lease is a reported data race.
func TestOneOwnerPerSession(t *testing.T) {
	srv := server.New(server.Config{
		ChunkAccesses: 500, SnapshotDir: t.TempDir(), SnapshotEvery: time.Millisecond,
	})
	base := serve(t, srv)
	ctx := context.Background()
	info, err := client.New(base).CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// retry repeats f while the session is busy.
	retry := func(f func() error) error {
		for {
			if err := f(); !isStatus(err, http.StatusConflict) {
				return err
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	const clients, replays, n = 4, 3, 1500
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := client.New(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < replays; k++ {
				if err := retry(func() error {
					_, err := c.ReplayWorkload(ctx, info.ID, n, 0, nil)
					return err
				}); err != nil {
					errs <- fmt.Errorf("replay: %w", err)
					return
				}
				if err := retry(func() error {
					_, err := c.Snapshot(ctx, info.ID)
					return err
				}); err != nil {
					errs <- fmt.Errorf("snapshot: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var snap server.SnapshotResponse
	if err := retry(func() (err error) {
		snap, err = client.New(base).Snapshot(ctx, info.ID)
		return err
	}); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	assertSameRun(t, "concurrent replays", directRun(t, clients*replays*n), snap.Stats)
}

func TestIdleTTLEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	srv, c := newTestServer(t, server.Config{IdleTTL: time.Minute, Now: clock})
	ctx := context.Background()

	a, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	b, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	// Before the TTL: nothing to evict.
	advance(30 * time.Second)
	if n := srv.Sweep(clock()); n != 0 {
		t.Fatalf("early sweep evicted %d", n)
	}

	// Touch session b only; a ages past the TTL.
	advance(31 * time.Second)
	if _, err := c.ReplayWorkload(ctx, b.ID, 100, 0, nil); err != nil {
		t.Fatalf("touch replay: %v", err)
	}
	if n := srv.Sweep(clock()); n != 1 {
		t.Fatalf("sweep evicted %d, want 1 (only the idle session)", n)
	}
	if _, err := c.Snapshot(ctx, a.ID); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("evicted session still reachable: %v", err)
	}
	if _, err := c.Snapshot(ctx, b.ID); err != nil {
		t.Fatalf("live session evicted: %v", err)
	}

	// The touched session goes once it idles past the TTL too.
	advance(2 * time.Minute)
	if n := srv.Sweep(clock()); n != 1 {
		t.Fatalf("final sweep evicted %d, want 1", n)
	}
}

func isStatus(err error, code int) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == code
}

// TestEngineOverrideTableSizesAreFixed: the memo tables' shadow-group and
// MRU sizes are constants, so an engine override that names them is an
// unknown field (400) rather than a zero size that panics mid-replay. The
// ablation switches stay, and a table with both turned off replays.
func TestEngineOverrideTableSizesAreFixed(t *testing.T) {
	base := serve(t, server.New(server.Config{}))
	ctx := context.Background()
	doc := func(l0 map[string]any) []byte {
		t.Helper()
		b, err := json.Marshal(engine.DefaultConfig(engine.RMCC, counter.Morphable, 0))
		if err != nil {
			t.Fatal(err)
		}
		var eng map[string]any
		if err := json.Unmarshal(b, &eng); err != nil {
			t.Fatal(err)
		}
		table := eng["L0Table"].(map[string]any)
		table["OverMaxThreshold"] = 1
		table["EpochAccesses"] = 1000
		for k, v := range l0 {
			table[k] = v
		}
		b, err = json.Marshal(map[string]any{"workload": "canneal", "size": "test", "engine": eng})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	create := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for _, field := range []string{"ShadowGroups", "MRUSize"} {
		resp := create(doc(map[string]any{field: 0}))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("engine override with L0Table.%s 0: status %d, want 400", field, resp.StatusCode)
		}
	}

	resp := create(doc(map[string]any{"EnableShadow": false, "EnableMRU": false}))
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("engine override without shadow groups and MRU: status %d (%s), want 201", resp.StatusCode, msg)
	}
	var info server.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	stats, err := client.New(base).ReplayWorkload(ctx, info.ID, 200_000, 0, nil)
	if err != nil {
		t.Fatalf("replay without shadow groups and MRU: %v", err)
	}
	if stats.Accesses != 200_000 {
		t.Fatalf("replayed %d accesses, want 200000", stats.Accesses)
	}
}
