package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rmcc/internal/mem/cache"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
	"rmcc/internal/sim"
	"rmcc/internal/snapshot"
	"rmcc/internal/workload"
)

// directStats runs the reference simulation on a throwaway daemon: one
// session, one uninterrupted replay of n accesses.
func directStats(t *testing.T, n uint64) server.ReplayStats {
	t.Helper()
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.ReplayWorkload(ctx, info.ID, n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, server.Config{SnapshotDir: dir})
	ctx := context.Background()

	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 6000, 0, nil); err != nil {
		t.Fatal(err)
	}

	// On-demand durable checkpoint: file on disk, info reflects it.
	ck, err := c.Checkpoint(ctx, info.ID)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ck.LastCheckpoint == "" || ck.CheckpointBytes == 0 {
		t.Fatalf("checkpoint info not populated: %+v", ck)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID+".snap")); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// Download, delete, restore: the session comes back under its ID with
	// its cursor intact, and the remaining replay is bit-identical to an
	// uninterrupted run.
	blob, err := c.CheckpointDownload(ctx, info.ID)
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := c.RestoreSession(ctx, blob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.ID != info.ID || restored.Accesses != 6000 {
		t.Fatalf("restored info: %+v", restored)
	}
	stats, err := c.ReplayWorkload(ctx, restored.ID, 4000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := directStats(t, 10000)
	if !reflect.DeepEqual(stats.Engine, want.Engine) {
		t.Errorf("resumed engine stats differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
			stats.Engine, want.Engine)
	}

	// Restoring the same blob while the session lives is an ID conflict.
	if _, err := c.RestoreSession(ctx, blob); err == nil {
		t.Fatal("duplicate restore succeeded")
	} else {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != 409 {
			t.Fatalf("duplicate restore: %v", err)
		}
	}
}

// TestRestoreThenCheckpointKeepsCursor covers the restore→checkpoint
// ordering hazard: a checkpoint cut on a restored session before its first
// replay (handleRestore cuts one immediately) must persist the restored
// stream cursor, not zero — otherwise the next recovery replays the
// deterministic stream from access 0 into an engine already at N and the
// resumed run diverges.
func TestRestoreThenCheckpointKeepsCursor(t *testing.T) {
	dir := t.TempDir()
	_, c1 := newTestServer(t, server.Config{SnapshotDir: dir})
	ctx := context.Background()

	info, err := c1.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ReplayWorkload(ctx, info.ID, 5000, 0, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := c1.CheckpointDownload(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	// Restore cuts an immediate durable checkpoint — before any replay has
	// rebuilt the session's access stream.
	if _, err := c1.RestoreSession(ctx, blob); err != nil {
		t.Fatalf("restore: %v", err)
	}

	// A second daemon generation recovers from that immediate checkpoint;
	// the remaining replay must still be bit-identical to an uninterrupted
	// run.
	_, c2 := newTestServer(t, server.Config{SnapshotDir: dir})
	infos, err := c2.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != info.ID || infos[0].Accesses != 5000 {
		t.Fatalf("recovered sessions: %+v", infos)
	}
	stats, err := c2.ReplayWorkload(ctx, info.ID, 5000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := directStats(t, 10000)
	if !reflect.DeepEqual(stats.Engine, want.Engine) {
		t.Errorf("restore→checkpoint→recover run diverged from uninterrupted run:\ngot:  %+v\nwant: %+v",
			stats.Engine, want.Engine)
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, c1 := newTestServer(t, server.Config{SnapshotDir: dir})
	ctx := context.Background()

	info, err := c1.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ReplayWorkload(ctx, info.ID, 5000, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkpoint(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	// "Crash": a second daemon starts over the same snapshot dir without
	// the first ever deleting its session.
	_, c2 := newTestServer(t, server.Config{SnapshotDir: dir})
	infos, err := c2.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != info.ID || infos[0].Accesses != 5000 {
		t.Fatalf("recovered sessions: %+v", infos)
	}
	stats, err := c2.ReplayWorkload(ctx, info.ID, 5000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := directStats(t, 10000)
	if !reflect.DeepEqual(stats.Engine, want.Engine) {
		t.Errorf("recovered engine stats differ from uninterrupted run:\ngot:  %+v\nwant: %+v",
			stats.Engine, want.Engine)
	}

	// New sessions on the recovered daemon must not collide with the
	// recovered ID space.
	fresh, err := c2.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == info.ID {
		t.Fatalf("recovered daemon reissued live session ID %q", fresh.ID)
	}
}

func TestRecoveryFallbacks(t *testing.T) {
	dir := t.TempDir()
	_, c1 := newTestServer(t, server.Config{SnapshotDir: dir})
	ctx := context.Background()

	info, err := c1.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ReplayWorkload(ctx, info.ID, 3000, 0, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := c1.CheckpointDownload(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated tail: the meta section survives, the simulator state does
	// not → recovery restarts the session fresh under the same ID.
	if err := os.WriteFile(filepath.Join(dir, info.ID+".snap"), blob[:len(blob)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	// Pure garbage: no usable meta → skipped entirely.
	if err := os.WriteFile(filepath.Join(dir, "s-deadbeef.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A whole checkpoint of another session stamped with format version 1:
	// the header is refused before the meta section is read → skipped.
	old, err := c1.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	oldBlob, err := c1.CheckpointDownload(ctx, old.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, old.ID+".snap"), withVersion(oldBlob, 1), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, server.Config{SnapshotDir: dir})
	infos, err := c2.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != info.ID {
		t.Fatalf("recovered sessions: %+v", infos)
	}
	if infos[0].Accesses != 0 {
		t.Fatalf("fallback session should restart at access zero, got %d", infos[0].Accesses)
	}
	// The fallback session is fully usable.
	if _, err := c2.ReplayWorkload(ctx, info.ID, 1000, 0, nil); err != nil {
		t.Fatalf("fallback session replay: %v", err)
	}
}

func TestRestoreRejectsBadBlobs(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 2000, 0, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := c.CheckpointDownload(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	status := func(err error) int {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("not an API error: %v", err)
		}
		return ae.Status
	}
	if _, err := c.RestoreSession(ctx, []byte("garbage")); status(err) != 422 {
		t.Errorf("garbage blob: %v", err)
	}
	if _, err := c.RestoreSession(ctx, blob[:len(blob)/2]); status(err) != 422 {
		t.Errorf("truncated blob: %v", err)
	}
	if _, err := c.RestoreSession(ctx, withVersion(blob, 0x7f)); status(err) != 422 {
		t.Errorf("version flip: %v", err)
	}
	if _, err := c.RestoreSession(ctx, withVersion(blob, 1)); status(err) != 422 {
		t.Errorf("format version 1: %v", err)
	}
}

// withVersion returns a copy of a checkpoint with its header's format
// version word set to v.
func withVersion(blob []byte, v uint32) []byte {
	mut := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(mut[8:], v)
	return mut
}

func TestDrainFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, server.Config{SnapshotDir: dir})
	ctx := context.Background()

	info, err := c.CreateSession(ctx, testSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplayWorkload(ctx, info.ID, 4000, 0, nil); err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()
	if n := srv.CheckpointAll(); n != 1 {
		t.Fatalf("CheckpointAll wrote %d checkpoints, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID+".snap")); err != nil {
		t.Fatalf("final checkpoint file: %v", err)
	}

	// The next daemon generation resumes from the drain checkpoint.
	_, c2 := newTestServer(t, server.Config{SnapshotDir: dir})
	infos, err := c2.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Accesses != 4000 {
		t.Fatalf("recovered sessions after drain: %+v", infos)
	}
}

// resealSection returns data, a snapshot of kind whose sections are tags,
// with section tag's payload passed through edit and every section sealed
// under a fresh CRC.
func resealSection(t *testing.T, data []byte, kind string, tags []string, tag string, edit func([]byte) []byte) []byte {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(data), kind)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sw := snapshot.NewWriter(&out, kind, sr.ConfigHash())
	for _, s := range tags {
		p, err := sr.Section(s)
		if err != nil {
			t.Fatal(err)
		}
		if s == tag {
			p = edit(p)
		}
		sw.Section(s, p)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestRestoreRefusesAddressesOutsidePhysicalMemory: a checkpoint whose
// page table maps a page, or whose LLC holds a dirty line, past the
// session's physical memory is a 422, however well sealed, so no later
// replay can step into it. The undoctored blob restores.
func TestRestoreRefusesAddressesOutsidePhysicalMemory(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := c.CreateSession(ctx, server.SessionConfig{FootprintBytes: 1 << 20, Label: "doctored"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplayAccessesBinary(ctx, info.ID, []workload.Access{{Addr: 2 << 21}}); err != nil {
		t.Fatal(err)
	}
	blob, err := c.CheckpointDownload(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	var vmState snapshot.Enc
	vmState.U64(1) // allocation cursor
	vmState.U64(1) // table length
	vmState.U64(2) // vpage
	vmState.U64(1 << 30)
	llc := cache.New(sim.DefaultLifetimeConfig(engine.Config{}).LLC)
	llc.Access(1<<50, true)
	var llcState snapshot.Enc
	llc.EncodeState(&llcState)
	lifetimeTags := []string{"cursor", "l1", "l2", "llc", "tlb4k", "tlb2m", "vm", "engine"}
	for _, tc := range []struct {
		name, tag string
		payload   []byte
	}{
		{"vpage 2 mapped to ppage 2^30", "vm", vmState.Data()},
		{"dirty LLC line at 2^50", "llc", llcState.Data()},
	} {
		bad := resealSection(t, blob, "rmccd-session", []string{"meta", "lifetime"}, "lifetime", func(lt []byte) []byte {
			return resealSection(t, lt, "rmcc-lifetime", lifetimeTags, tc.tag, func([]byte) []byte { return tc.payload })
		})
		if _, err := c.RestoreSession(ctx, bad); !isStatus(err, http.StatusUnprocessableEntity) {
			t.Errorf("%s: restore err = %v, want 422", tc.name, err)
		}
	}
	if list, err := c.ListSessions(ctx); err != nil || len(list) != 0 {
		t.Fatalf("refused restores left sessions: %+v, %v", list, err)
	}
	if restored, err := c.RestoreSession(ctx, blob); err != nil || restored.Accesses != 1 {
		t.Fatalf("undoctored restore: %+v, %v", restored, err)
	}
}
