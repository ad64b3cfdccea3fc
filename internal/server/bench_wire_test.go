package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rmcc/internal/server"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

// benchAccesses is the accesses per replay request in the wire
// benchmarks: 16 full frames.
const benchAccesses = 16 * trace.DefaultFrameAccesses

// benchCapture records benchAccesses accesses of canneal at test size.
func benchCapture(b *testing.B) ([]workload.Access, uint64) {
	b.Helper()
	w, ok := workload.ByName(workload.SizeTest, 1, "canneal")
	if !ok {
		b.Fatal("canneal unavailable")
	}
	accs := make([]workload.Access, 0, benchAccesses)
	w.Run(1, func(a workload.Access) bool {
		accs = append(accs, a)
		return len(accs) < benchAccesses
	})
	return accs, w.FootprintBytes()
}

// benchServer boots an in-process daemon (no listener) with one
// footprint-declared session and returns the replay URL. mode=nonsecure
// keeps the engine step cheap so the benchmark isolates the wire + apply
// path — the thing this PR changes — rather than AES counter math.
func benchServer(b *testing.B, footprint uint64) (*server.Server, string) {
	b.Helper()
	srv := server.New(server.Config{})
	b.Cleanup(func() { srv.Close() })
	body, _ := json.Marshal(server.SessionConfig{
		Mode: "nonsecure", Seed: 1, FootprintBytes: footprint, Label: "bench",
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		b.Fatalf("create session: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var info server.SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	return srv, "/v1/sessions/" + info.ID + "/replay"
}

// replayBody posts one pre-encoded replay body in-process and fails on a
// non-200.
func replayBody(b *testing.B, srv *server.Server, url, contentType string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("replay: HTTP %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkReplayBinary measures end-to-end replay throughput over the
// binary frame wire: accesses/sec includes HTTP dispatch, frame decoding,
// and stepping the engine.
func BenchmarkReplayBinary(b *testing.B) {
	accs, footprint := benchCapture(b)
	body := frameAccesses(b, accs)
	srv, url := benchServer(b, footprint)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayBody(b, srv, url, server.ContentTypeBinaryReplay, body)
	}
	b.ReportMetric(float64(benchAccesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}
