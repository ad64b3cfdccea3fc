// Package client is a thin Go client for the rmccd daemon (see
// internal/server and docs/SERVICE.md). It is what cmd/rmcc-loadgen
// drives and what tests use to exercise the service end to end.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/server"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

// Client talks to one rmccd instance.
type Client struct {
	base  string
	hc    *http.Client
	trace obs.TraceContext
}

// New builds a client for base, e.g. "http://127.0.0.1:8077". Replays
// have no client-side timeout — they stream for as long as the simulation
// runs; cancel through the context instead. The transport keeps a deep
// idle pool per host: loadgen drives thousands of concurrent sessions at
// one base URL, and the default pool of 2 would churn a new TCP
// connection per request past that.
func New(base string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 1024
	tr.MaxIdleConnsPerHost = 512
	return &Client{base: base, hc: &http.Client{Transport: tr}}
}

// WithTraceContext returns a client whose requests carry tc on the
// X-Rmcc-Trace header, joining every server-side span they cause into
// tc's distributed trace. The copy shares the transport; the zero context
// returns the receiver unchanged. Loadgen mints one context per session
// so a session's whole life — create, replays across a drain migration,
// delete — is one trace.
func (c *Client) WithTraceContext(tc obs.TraceContext) *Client {
	if !tc.Valid() {
		return c
	}
	cc := *c
	cc.trace = tc
	return &cc
}

// TraceContext returns the context set by WithTraceContext (zero when
// none).
func (c *Client) TraceContext() obs.TraceContext { return c.trace }

// send applies the client's trace context and issues the request.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	if c.trace.Valid() {
		req.Header.Set(obs.TraceHeader, c.trace.String())
	}
	return c.hc.Do(req)
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rmccd: HTTP %d: %s", e.Status, e.Msg)
}

// do issues a request and decodes a JSON response into out (unless nil).
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	var eb server.ErrorBody
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(body, &eb) != nil || eb.Error == "" {
		eb.Error = string(bytes.TrimSpace(body))
	}
	return &APIError{Status: resp.StatusCode, Msg: eb.Error}
}

// CreateSession creates a configured session.
func (c *Client) CreateSession(ctx context.Context, cfg server.SessionConfig) (server.SessionInfo, error) {
	var info server.SessionInfo
	body, err := json.Marshal(cfg)
	if err != nil {
		return info, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/json")
	return info, c.do(req, &info)
}

// ListSessions lists live sessions.
func (c *Client) ListSessions(ctx context.Context) ([]server.SessionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	var out []server.SessionInfo
	return out, c.do(req, &out)
}

// DeleteSession evicts a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// Snapshot returns the session's cumulative stats and manifest.
func (c *Client) Snapshot(ctx context.Context, id string) (server.SnapshotResponse, error) {
	var out server.SnapshotResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sessions/"+id+"/snapshot", nil)
	if err != nil {
		return out, err
	}
	return out, c.do(req, &out)
}

// Checkpoint asks the daemon to cut a durable state checkpoint of the
// session into its -snapshot-dir, returning the refreshed session info.
func (c *Client) Checkpoint(ctx context.Context, id string) (server.SessionInfo, error) {
	var info server.SessionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions/"+id+"/snapshot", nil)
	if err != nil {
		return info, err
	}
	return info, c.do(req, &info)
}

// CheckpointDownload cuts a state checkpoint and returns the encoded
// blob, feedable to RestoreSession on any daemon.
func (c *Client) CheckpointDownload(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions/"+id+"/snapshot?download=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// RestoreSession creates a session from a checkpoint blob.
func (c *Client) RestoreSession(ctx context.Context, blob []byte) (server.SessionInfo, error) {
	var info server.SessionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions/restore", bytes.NewReader(blob))
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return info, c.do(req, &info)
}

// ReplayWorkload runs the session's bound generator for n accesses
// server-side and returns the rolled-up stats. onProgress, when non-nil,
// receives applied-access counts as the daemon streams progress frames
// (progressEvery accesses apart).
func (c *Client) ReplayWorkload(ctx context.Context, id string, n uint64,
	progressEvery uint64, onProgress func(accesses uint64)) (server.ReplayStats, error) {
	url := fmt.Sprintf("%s/v1/sessions/%s/replay?workload=&accesses=%d", c.base, id, n)
	if progressEvery > 0 {
		url += "&progress=" + strconv.FormatUint(progressEvery, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return server.ReplayStats{}, err
	}
	return c.replay(req, progressEvery > 0, onProgress)
}

// ReplayAccessesBinary uploads accesses to a session as length-prefixed
// RMTR frames (the daemon's one replay body encoding) and returns the
// rolled-up stats. Framing happens on a pipe goroutine, so the upload
// backpressures against the daemon's apply loop. Gaps above 127 are
// clamped, as in every RMTR stream.
func (c *Client) ReplayAccessesBinary(ctx context.Context, id string, accs []workload.Access) (server.ReplayStats, error) {
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 64<<10)
		fw := trace.NewFrameWriter(bw, trace.DefaultFrameAccesses)
		var err error
		for _, a := range accs {
			if err = fw.Append(a); err != nil {
				break
			}
		}
		if err == nil {
			err = fw.Flush()
		}
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
	}()
	return c.ReplayBinary(ctx, id, pr)
}

// ReplayTrace uploads an RMTR trace file (the rmcc-trace -record format)
// to a session: it checks the header and sends the rest, which is already
// a replay body, verbatim.
func (c *Client) ReplayTrace(ctx context.Context, id string, tr io.Reader) (server.ReplayStats, error) {
	r, err := trace.NewReader(tr)
	if err != nil {
		return server.ReplayStats{}, err
	}
	return c.ReplayBinary(ctx, id, r.Body())
}

// ReplayBinary streams a raw binary replay body (already framed —
// trace.FrameWriter output) with the binary content type.
func (c *Client) ReplayBinary(ctx context.Context, id string, body io.Reader) (server.ReplayStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions/"+id+"/replay", body)
	if err != nil {
		return server.ReplayStats{}, err
	}
	req.Header.Set("Content-Type", server.ContentTypeBinaryReplay)
	return c.replay(req, false, nil)
}

// replay runs a replay request, consuming either the single JSON document
// or the NDJSON frame stream.
func (c *Client) replay(req *http.Request, streaming bool, onProgress func(uint64)) (server.ReplayStats, error) {
	var stats server.ReplayStats
	resp, err := c.send(req)
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return stats, decodeError(resp)
	}
	if !streaming {
		return stats, json.NewDecoder(resp.Body).Decode(&stats)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sawResult := false
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var f server.ReplayFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return stats, fmt.Errorf("rmccd: bad frame: %w", err)
		}
		switch f.Type {
		case "progress":
			if onProgress != nil {
				onProgress(f.Accesses)
			}
		case "result":
			if f.Stats != nil {
				stats = *f.Stats
			}
			sawResult = true
		case "error":
			return stats, &APIError{Status: resp.StatusCode, Msg: f.Error}
		default:
			return stats, fmt.Errorf("rmccd: unknown frame type %q", f.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	if !sawResult {
		return stats, fmt.Errorf("rmccd: stream ended without a result frame")
	}
	return stats, nil
}

// Health checks /healthz; nil means serving (not draining).
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// WaitHealthy polls /healthz until it succeeds or ctx expires.
func (c *Client) WaitHealthy(ctx context.Context) error {
	for {
		if err := c.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rmccd: never became healthy: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// RawMetrics scrapes /metrics (Prometheus text).
func (c *Client) RawMetrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.send(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Tracez fetches /debug/tracez. With traceID set it returns the node's
// full span tree for that trace (sorted by start, span ID); otherwise the
// slowest-spans view limited to n (n <= 0 uses the server default).
func (c *Client) Tracez(ctx context.Context, traceID string, n int) (server.TracezResponse, error) {
	var resp server.TracezResponse
	url := c.base + "/debug/tracez"
	switch {
	case traceID != "":
		url += "?trace=" + traceID
	case n > 0:
		url += "?n=" + strconv.Itoa(n)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return resp, err
	}
	return resp, c.do(req, &resp)
}

// Flightz fetches the /debug/flightz summary.
func (c *Client) Flightz(ctx context.Context) (server.FlightzInfo, error) {
	var info server.FlightzInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/flightz", nil)
	if err != nil {
		return info, err
	}
	return info, c.do(req, &info)
}

// FlightDump fetches and decodes the node's flight-recorder dump
// (/debug/flightz?dump=1).
func (c *Client) FlightDump(ctx context.Context) (*obs.FlightDump, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/flightz?dump=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return obs.ReadFlightDump(resp.Body)
}
