package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"time"

	"rmcc/internal/graph"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
	"rmcc/internal/sim"
	"rmcc/internal/workload"
)

// replay-pageRank: an in-process rmccd behind a real loopback listener,
// driven by the service client like rmcc-loadgen -wire binary. One request
// uploads one chunk of a captured pageRank trace to a warm rmcc-mode
// session. Every response is checked against an in-process oracle
// lifetime fed the same accesses: the service must add no drift.
//
// pageRank's cost per access drifts along an iteration (R-MAT hubs come
// first), so a time-bounded run over the live stream would measure a
// different stretch on a faster build, and a short prefix of it would
// differ from seed to seed. Requests instead cycle through a fixed trace:
// chunks sampled evenly across the first replaySpan accesses (most of one
// iteration), which every run covers many times over.
const (
	replayChunk  = 32 << 10 // accesses per request
	replayWindow = 16       // chunks in the cycled trace
	replaySpan   = 16 << 20 // stream prefix the chunks are sampled from

	// The workload.SizeSmall R-MAT graph: 1 Mi vertices, 8 Mi edges.
	smallScale      = 20
	smallEdgeFactor = 8
)

// smallGraph generates the graph that workload.ByName(workload.SizeSmall,
// seed, ...) runs its kernels on, without the suite's process-wide graph
// cache, so every set-up generates it.
func smallGraph(seed uint64) *graph.CSR {
	return graph.GenerateRMAT(graph.DefaultRMAT(smallScale, smallEdgeFactor), seed)
}

type replayRunner struct {
	seed uint64

	srv     *server.Server
	hs      *http.Server
	served  chan error
	cl      *client.Client
	session string

	w      workload.Workload
	window [][]workload.Access
	next   int
	oracle *sim.Lifetime
	last   server.ReplayStats

	// Set by warm for the per-layer metrics: the generator's time over
	// the sampled span, and rmccd's engine-step total before measuring.
	genTime  time.Duration
	stepBase float64
}

func setupReplay(seed uint64, _ bool) (runner, error) {
	w := workload.NewPageRank(smallGraph(seed))
	r := &replayRunner{seed: seed, w: w}

	// The oracle is the direct lifetime run the service must reproduce:
	// the configuration the daemon resolves for this session document.
	oracle, err := sim.NewLifetimeChecked(w.Name(), w.FootprintBytes(), lifetimeConfig(seed))
	if err != nil {
		return nil, err
	}
	r.oracle = oracle

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = server.New(server.Config{})
	r.hs = &http.Server{Handler: r.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.cl = client.New("http://" + ln.Addr().String())

	info, err := r.cl.CreateSession(context.Background(), server.SessionConfig{
		Mode: "rmcc", Scheme: "morphable", Seed: seed,
		FootprintBytes: w.FootprintBytes(), Label: w.Name(),
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("create session: %w", err)
	}
	r.session = info.ID
	return r, nil
}

// warm captures the trace and replays it once untimed.
func (r *replayRunner) warm() error {
	const stride = replaySpan / replayWindow
	var chunk []workload.Access
	pos := 0
	start := time.Now()
	r.w.Run(r.seed, func(a workload.Access) bool {
		if pos%stride == 0 {
			chunk = make([]workload.Access, 0, replayChunk)
		}
		if len(chunk) < replayChunk {
			if chunk = append(chunk, a); len(chunk) == replayChunk {
				r.window = append(r.window, chunk)
			}
		}
		pos++
		return pos < replaySpan
	})
	r.genTime = time.Since(start)
	for range r.window {
		if _, _, err := r.request(nil, 0); err != nil {
			return err
		}
	}
	var err error
	r.stepBase, err = r.engineStepUS()
	return err
}

func (r *replayRunner) request(tr *obs.SpanTracer, parent uint64) (int, time.Duration, error) {
	chunk := r.window[r.next%len(r.window)]
	r.next++
	var stats server.ReplayStats
	var err error
	d := timeCall(tr, parent, func() {
		stats, err = r.cl.ReplayAccessesBinary(context.Background(), r.session, chunk)
	})
	if err != nil {
		return 0, 0, err
	}
	for _, a := range chunk {
		r.oracle.Step(a)
	}
	if want := r.oracle.Accesses(); stats.Accesses != want {
		return 0, 0, fmt.Errorf("session reports %d accesses, sent %d", stats.Accesses, want)
	}
	if st := r.oracle.MC().Stats(); !reflect.DeepEqual(stats.Engine, st) {
		return 0, 0, fmt.Errorf("session engine stats diverged from the oracle after %d accesses", stats.Accesses)
	}
	r.last = stats
	return len(chunk), d, nil
}

// engineStepUS reads the daemon's engine-step stage total (µs) from its
// /metrics: the sum of its own engine-step spans.
func (r *replayRunner) engineStepUS() (float64, error) {
	text, err := r.cl.RawMetrics(context.Background())
	if err != nil {
		return 0, err
	}
	p, err := obs.ParsePromText(strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	v, ok := p.Value("rmccd_replay_stage_duration_us_sum", obs.L("stage", "engine-step"))
	if !ok {
		return 0, errors.New("no engine-step stage in /metrics")
	}
	return v, nil
}

func (r *replayRunner) verify() error {
	if r.last.Accesses == 0 {
		return errors.New("no replay completed")
	}
	return checkEngine(r.last.Engine, r.last.Accesses)
}

// pinned is the session's cumulative statistics without the per-run
// session ID and wall time.
func (r *replayRunner) pinned() any {
	st := r.last
	st.SessionID, st.WallSeconds = "", 0
	return st
}

func (r *replayRunner) classes() int { return replayWindow }

// layerTimes splits the call by the daemon's own stage spans: its engine
// step (the session's Lifetime stepping the chunk) is the engine layer,
// the rest (HTTP, wire decode, shard queue wait, stats roll-up) the
// driver's. The generator is off the request path: its time is the
// capture's, per access generated.
func (r *replayRunner) layerTimes() (time.Duration, int, time.Duration, error) {
	us, err := r.engineStepUS()
	if err != nil {
		return 0, 0, 0, err
	}
	return r.genTime, replaySpan, time.Duration((us - r.stepBase) * float64(time.Microsecond)), nil
}

func (r *replayRunner) engineStats() (engine.Stats, uint64) {
	return r.last.Engine, r.last.Accesses
}

// heapBytes is what the daemon frees when the session is deleted.
func (r *replayRunner) heapBytes() (uint64, error) {
	return heapDelta(func() error { return r.cl.DeleteSession(context.Background(), r.session) })
}

// close stops the listener, waits for the serve goroutine, then stops the
// daemon's shard pool — the order cmd/rmccd's shutdown uses.
func (r *replayRunner) close() {
	if r.hs != nil {
		_ = r.hs.Close() // the serve loop's exit is what we wait for
		<-r.served
		r.hs = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}
