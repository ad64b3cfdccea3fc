package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
)

// Config parameterizes the router. Nodes is required; everything else
// has a production default.
type Config struct {
	// Nodes are the rmccd base URLs ("http://host:port" or bare
	// "host:port"). The node set is fixed for the router's lifetime;
	// drain/activate change a node's duties, not the set.
	Nodes []string
	// VNodes is the virtual-node count per physical node
	// (default DefaultVNodes).
	VNodes int
	// HealthEvery is the health-check poll interval (default 2s).
	HealthEvery time.Duration
	// HealthTimeout bounds one node's statusz+metrics poll (default 2s).
	HealthTimeout time.Duration
	// FailAfter consecutive failed checks mark a node unhealthy
	// (default 3); RecoverAfter consecutive passes bring it back
	// (default 2).
	FailAfter    int
	RecoverAfter int
	// ReconcileEvery is how many health ticks pass between listing-based
	// location reconciles (default 10).
	ReconcileEvery int
	// MigrateConcurrency bounds parallel session migrations during a
	// drain (default 4).
	MigrateConcurrency int
	// MaxBodyBytes caps a create body (default 1 MiB); MaxSnapshotBytes
	// caps a restore blob (default 256 MiB).
	MaxBodyBytes     int64
	MaxSnapshotBytes int64
	// FlightCap sizes, in bytes, the flight-recorder ring that is the
	// router's one span store behind /debug/tracez
	// (default obs.DefaultFlightCap).
	FlightCap int

	// Logger receives structured operational logs (default
	// obs.DiscardLogger, which writes nothing).
	Logger *slog.Logger
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	if c.ReconcileEvery <= 0 {
		c.ReconcileEvery = 10
	}
	if c.MigrateConcurrency <= 0 {
		c.MigrateConcurrency = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 256 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	return c
}

// Node admin states.
const (
	nodeActive   = "active"
	nodeDraining = "draining"
	nodeDrained  = "drained"
)

// node is one rmccd backend. The struct is created at New and never
// removed, so the Router.nodes map is read without locking; mutable
// state is either atomic (health verdict, scraped gauges) or guarded by
// Router.mu (admin mode, ring membership).
type node struct {
	id    string // host:port — the wire identity
	base  string // normalized base URL
	u     *url.URL
	proxy *httputil.ReverseProxy
	api   *client.Client

	healthy  atomic.Bool
	sessions atomic.Int64  // rmccd_sessions_active at last good scrape
	p99us    atomic.Uint64 // Float64bits of replay p99 µs at last good scrape
	lastErr  atomic.Pointer[string]

	// Health-loop private (single goroutine; CheckNodes callers in tests
	// must not race the loop — cmd/rmcc-router only starts one).
	consecFail, consecOK int

	// Guarded by Router.mu.
	mode   string
	inRing bool
}

// entry is one routed session. mu is the migration gate: every proxied
// request holds it in read mode for the request's duration, a migration
// holds it in write mode — so a pending migration blocks new requests
// for that one session while in-flight ones drain, and the repoint is
// atomic from the client's point of view. node is the routed location
// (atomic so listings can read it without the gate); nil means "place
// by ring".
type entry struct {
	mu   sync.RWMutex
	node atomic.Pointer[node]
}

// Router is the rmcc-router core: an http.Handler that proxies the
// rmccd session API across a consistent-hash ring of nodes and serves
// the /v1/cluster control plane.
type Router struct {
	cfg     Config
	log     *slog.Logger
	reg     *obs.Registry
	spans   *obs.SpanTracer
	mux     *http.ServeMux
	started time.Time

	// nodes is immutable after New; nodeList is the same set in flag
	// order for deterministic iteration.
	nodes    map[string]*node
	nodeList []*node

	// ring is copy-on-write: the hot path loads the pointer, membership
	// changes build a fresh ring under mu and swap it in.
	ring atomic.Pointer[Ring]
	mu   sync.Mutex

	// entries maps session ID -> *entry. Grows with create/restore/
	// reconcile traffic; delete removes.
	entries sync.Map

	healthStop chan struct{}
	healthDone chan struct{}

	mMigrationsOK   *obs.Counter
	mMigrationsFail *obs.Counter
	mMigrationUS    *obs.Histogram
	mMigrationBytes *obs.Histogram
	mHealthOK       map[string]*obs.Counter
	mHealthFail     map[string]*obs.Counter
	mProxyErrors    *obs.Counter
}

// New builds a router over the configured node set and starts its
// health loop. Nodes start optimistically healthy and in the ring; the
// first failed check cycle takes a dead node out.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	rt := &Router{
		cfg:        cfg,
		log:        cfg.Logger,
		reg:        obs.NewRegistry(),
		spans:      obs.NewSpanTracerOn(obs.NewFlightRecorder(cfg.FlightCap, routerNode)),
		started:    cfg.Now(),
		nodes:      make(map[string]*node),
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	for _, raw := range cfg.Nodes {
		n, err := rt.newNode(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := rt.nodes[n.id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n.id)
		}
		rt.nodes[n.id] = n
		rt.nodeList = append(rt.nodeList, n)
	}
	rt.mu.Lock()
	rt.syncRingLocked()
	rt.mu.Unlock()
	rt.initMetrics()
	rt.initRoutes()
	go rt.healthLoop()
	return rt, nil
}

func (rt *Router) newNode(raw string) (*node, error) {
	base := raw
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", raw, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("cluster: node %q has no host", raw)
	}
	base = u.Scheme + "://" + u.Host
	n := &node{
		id:   u.Host,
		base: base,
		u:    u,
		api:  client.New(base),
		mode: nodeActive,
	}
	n.healthy.Store(true)
	// Deep idle pool: the router multiplexes thousands of concurrent
	// sessions onto one backend host; the default transport keeps 2 idle
	// connections per host and would churn TCP for everything else.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 1024
	tr.MaxIdleConnsPerHost = 512
	n.proxy = &httputil.ReverseProxy{
		Transport: tr,
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(n.u)
			pr.Out.Host = n.u.Host
		},
		// Negative: flush immediately — replay progress frames are an
		// NDJSON stream the client watches live.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			rt.mProxyErrors.Inc()
			rt.log.Warn("proxy error", "node", n.id, "path", r.URL.Path, "error", err)
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("node %s unreachable: %v", n.id, err))
		},
	}
	return n, nil
}

// syncRingLocked rebuilds the ring from the current node states. Caller
// holds rt.mu.
func (rt *Router) syncRingLocked() {
	r := NewRing(rt.cfg.VNodes)
	for _, n := range rt.nodeList {
		n.inRing = n.mode == nodeActive && n.healthy.Load()
		if n.inRing {
			r.Add(n.id)
		}
	}
	rt.ring.Store(r)
}

// Close stops the health loop. In-flight proxied requests are the HTTP
// server's to drain.
func (rt *Router) Close() {
	close(rt.healthStop)
	<-rt.healthDone
}

// Handler returns the routed handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Metrics exposes the router's registry (tests, embedding).
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// Ring exposes the current ring (tests, statusz).
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

func (rt *Router) initRoutes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/sessions", rt.instrument("create", rt.handleCreate))
	rt.mux.HandleFunc("GET /v1/sessions", rt.instrument("list", rt.handleList))
	rt.mux.HandleFunc("POST /v1/sessions/restore", rt.instrument("restore", rt.handleRestore))
	rt.mux.HandleFunc("DELETE /v1/sessions/{id}", rt.instrument("delete", rt.handleSessionDelete))
	rt.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", rt.instrument("snapshot", rt.proxySession))
	rt.mux.HandleFunc("POST /v1/sessions/{id}/snapshot", rt.instrument("checkpoint", rt.proxySession))
	rt.mux.HandleFunc("POST /v1/sessions/{id}/replay", rt.instrument("replay", rt.proxySession))
	rt.mux.HandleFunc("GET /v1/cluster", rt.instrument("cluster", rt.handleCluster))
	rt.mux.HandleFunc("POST /v1/cluster/nodes/{node}/drain", rt.instrument("drain", rt.handleDrain))
	rt.mux.HandleFunc("POST /v1/cluster/nodes/{node}/activate", rt.instrument("activate", rt.handleActivate))
	rt.mux.HandleFunc("GET /healthz", rt.instrument("healthz", rt.handleHealthz))
	rt.mux.HandleFunc("GET /metrics", rt.instrument("metrics", rt.handleMetrics))
	rt.mux.HandleFunc("GET /statusz", rt.instrument("statusz", rt.handleStatusz))
	rt.mux.HandleFunc("GET /debug/tracez", rt.instrument("tracez", rt.handleTracez))
}

// --- hot path ---

// gate resolves a session ID to its node and takes the request's read
// side of the migration gate. On return with a non-nil node, e.mu is
// held in read mode and the caller must RUnlock after the proxied
// request completes. Steady state (entry exists) is allocation-free;
// the first touch of an unknown ID allocates its entry once.
func (rt *Router) gate(id string) (*node, *entry) {
	v, ok := rt.entries.Load(id)
	if !ok {
		// Unknown to the router (restart, or a client-invented ID): give
		// it an entry so a concurrent migration serializes with us, and
		// fall through to ring placement.
		v, _ = rt.entries.LoadOrStore(id, &entry{})
	}
	e := v.(*entry)
	e.mu.RLock()
	if n := e.node.Load(); n != nil {
		return n, e
	}
	owner := rt.ring.Load().Owner(id)
	if owner != "" {
		if n := rt.nodes[owner]; n != nil {
			return n, e
		}
	}
	e.mu.RUnlock()
	return nil, nil
}

// proxySession forwards one session-scoped request to the session's
// node under the migration gate.
func (rt *Router) proxySession(w http.ResponseWriter, r *http.Request) {
	n, e := rt.gate(r.PathValue("id"))
	if n == nil {
		writeError(w, http.StatusServiceUnavailable, "no nodes in ring")
		return
	}
	defer e.mu.RUnlock()
	n.proxy.ServeHTTP(w, r)
}

// handleSessionDelete proxies a delete and, when the node confirms it,
// forgets the routed location.
func (rt *Router) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, e := rt.gate(id)
	if n == nil {
		writeError(w, http.StatusServiceUnavailable, "no nodes in ring")
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	n.proxy.ServeHTTP(sw, r)
	e.mu.RUnlock()
	if sw.code/100 == 2 || sw.code == http.StatusNotFound {
		rt.entries.Delete(id)
	}
}

// --- create / restore / list ---

// newSessionID draws a random 64-bit daemon-form ID. Random (not a
// counter) so concurrent routers over one node set cannot collide, and
// so the ring spreads sessions independent of arrival order.
func newSessionID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return fmt.Sprintf("s-%016x", binary.BigEndian.Uint64(b[:]))
}

// handleCreate assigns a session ID, consistent-hashes it to its owning
// node, and forwards the create there under the ?id= contract.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	for attempt := 0; attempt < 4; attempt++ {
		id := newSessionID()
		e := &entry{}
		e.mu.Lock()
		if _, loaded := rt.entries.LoadOrStore(id, e); loaded {
			e.mu.Unlock()
			continue // astronomically unlikely: ID already routed
		}
		owner := rt.ring.Load().Owner(id)
		if owner == "" {
			rt.entries.Delete(id)
			e.mu.Unlock()
			writeError(w, http.StatusServiceUnavailable, "no nodes in ring")
			return
		}
		n := rt.nodes[owner]
		info, err := n.api.WithTraceContext(reqTrace(r.Context())).CreateSessionRaw(r.Context(), id, body)
		if err != nil {
			rt.entries.Delete(id)
			e.mu.Unlock()
			var ae *client.APIError
			if errors.As(err, &ae) {
				if ae.Status == http.StatusConflict {
					continue // ID collided with a node-local session; redraw
				}
				writeError(w, ae.Status, ae.Msg)
				return
			}
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("node %s unreachable: %v", n.id, err))
			return
		}
		e.node.Store(n)
		e.mu.Unlock()
		info.Node = n.id
		rt.log.Info("session created", "session", info.ID, "node", n.id)
		writeJSON(w, http.StatusCreated, info)
		return
	}
	writeError(w, http.StatusInternalServerError, "could not allocate a session id")
}

// handleRestore peeks the session ID out of the checkpoint blob, routes
// it to its ring owner, and forwards the restore there under the
// session's migration gate.
func (rt *Router) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxSnapshotBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	id, err := server.PeekSnapshotSessionID(data)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	v, _ := rt.entries.LoadOrStore(id, &entry{})
	e := v.(*entry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.node.Load(); cur != nil {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("session %q already live on node %s", id, cur.id))
		return
	}
	owner := rt.ring.Load().Owner(id)
	if owner == "" {
		writeError(w, http.StatusServiceUnavailable, "no nodes in ring")
		return
	}
	n := rt.nodes[owner]
	info, err := n.api.WithTraceContext(reqTrace(r.Context())).RestoreSession(r.Context(), data)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) {
			writeError(w, ae.Status, ae.Msg)
			return
		}
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("node %s unreachable: %v", n.id, err))
		return
	}
	e.node.Store(n)
	info.Node = n.id
	rt.log.Info("session restored", "session", info.ID, "node", n.id)
	writeJSON(w, http.StatusCreated, info)
}

// handleList fans a session listing out to every node concurrently and
// merges the results, each annotated with its node.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	type result struct {
		node  *node
		infos []server.SessionInfo
		err   error
	}
	results := make([]result, len(rt.nodeList))
	var wg sync.WaitGroup
	for i, n := range rt.nodeList {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			infos, err := n.api.ListSessions(r.Context())
			results[i] = result{node: n, infos: infos, err: err}
		}(i, n)
	}
	wg.Wait()
	out := make([]server.SessionInfo, 0, 64)
	for _, res := range results {
		if res.err != nil {
			rt.log.Warn("list: node unreachable", "node", res.node.id, "error", res.err)
			continue
		}
		for _, info := range res.infos {
			info.Node = res.node.id
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// --- cluster control plane ---

func (rt *Router) clusterInfoLocked() server.ClusterInfo {
	info := server.ClusterInfo{VNodes: rt.cfg.VNodes}
	for _, n := range rt.nodeList {
		cn := server.ClusterNode{
			ID:       n.id,
			URL:      n.base,
			State:    n.mode,
			Healthy:  n.healthy.Load(),
			InRing:   n.inRing,
			Sessions: int(n.sessions.Load()),
		}
		cn.ReplayP99us = math.Float64frombits(n.p99us.Load())
		if le := n.lastErr.Load(); le != nil {
			cn.LastError = *le
		}
		info.Nodes = append(info.Nodes, cn)
	}
	rt.entries.Range(func(_, v any) bool {
		if v.(*entry).node.Load() != nil {
			info.Sessions++
		}
		return true
	})
	return info
}

func (rt *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	info := rt.clusterInfoLocked()
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// handleDrain takes the node out of the ring and migrates every one of
// its sessions to its new ring owner. The response reports the
// migration tally; 200 only when every session moved.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	nodeID := r.PathValue("node")
	rt.mu.Lock()
	n := rt.nodes[nodeID]
	if n == nil {
		rt.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such node %q", nodeID))
		return
	}
	if n.mode == nodeDraining {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, "drain already in progress")
		return
	}
	n.mode = nodeDraining
	rt.syncRingLocked()
	if rt.ring.Load().Len() == 0 {
		n.mode = nodeActive
		rt.syncRingLocked()
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, "refusing to drain the last in-ring node")
		return
	}
	rt.mu.Unlock()

	// The drain trace: adopt the caller's (so an operator-traced drain
	// shows up under their trace), or mint one so the migration hops are
	// connected even for an untraced request. Every migrate /
	// snapshot-download / restore span parents under it, across nodes.
	tc := reqTrace(r.Context())
	if !tc.Valid() {
		tc = obs.MintTraceContext()
		tc.SpanID = 0 // the drain span below is the trace root
	}
	dsp := rt.spans.StartT("drain", n.id, tc.SpanID, tc)
	tc.SpanID = dsp.ID()
	rt.log.Info("drain started", "node", n.id, "trace", tc.TraceID())

	// A drain must run to completion once started (a half-migrated node
	// strands sessions), so it survives the triggering request dying.
	res := rt.drainNode(context.WithoutCancel(r.Context()), n, tc)
	dsp.End()

	rt.mu.Lock()
	if res.Failed == 0 {
		n.mode = nodeDrained
	}
	rt.mu.Unlock()
	rt.log.Info("drain finished", "node", n.id, "trace", tc.TraceID(),
		"sessions", res.Sessions, "migrated", res.Migrated, "failed", res.Failed)
	code := http.StatusOK
	if res.Failed > 0 {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, res)
}

// handleActivate returns a drained (or draining, aborting it between
// sessions is not supported — only a finished one) node to service.
func (rt *Router) handleActivate(w http.ResponseWriter, r *http.Request) {
	nodeID := r.PathValue("node")
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := rt.nodes[nodeID]
	if n == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such node %q", nodeID))
		return
	}
	if n.mode == nodeDraining {
		writeError(w, http.StatusConflict, "drain in progress")
		return
	}
	n.mode = nodeActive
	rt.syncRingLocked()
	rt.log.Info("node activated", "node", n.id)
	writeJSON(w, http.StatusOK, rt.clusterInfoLocked())
}

// --- health/metrics/statusz endpoints ---

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if rt.ring.Load().Len() == 0 {
		writeError(w, http.StatusServiceUnavailable, "no nodes in ring")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rt.reg.WritePrometheus(w); err != nil {
		rt.log.Warn("write metrics failed", "error", err)
	}
}

// StatuszInfo is the router's GET /statusz body.
type StatuszInfo struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	VNodes        int     `json:"vnodes"`
	// Sessions counts sessions with a known routed location.
	Sessions int                  `json:"sessions"`
	Nodes    []server.ClusterNode `json:"nodes"`
}

func (rt *Router) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	ci := rt.clusterInfoLocked()
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, StatuszInfo{
		Version:       buildinfo.Version(),
		UptimeSeconds: rt.cfg.Now().Sub(rt.started).Seconds(),
		VNodes:        ci.VNodes,
		Sessions:      ci.Sessions,
		Nodes:         ci.Nodes,
	})
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, server.ErrorBody{Error: msg})
}

// statusWriter captures the response status while passing Flush through
// (replay progress streaming needs the Flusher to survive the wrap).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceCtxKey carries the request's trace context, rebased onto the
// router's request span, so handlers that re-issue node API calls
// (create, restore, drain) can propagate it downstream.
type traceCtxKey struct{}

// reqTrace returns the request's trace context (zero when untraced or
// when the handler runs uninstrumented, e.g. direct calls in tests).
func reqTrace(ctx context.Context) obs.TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(obs.TraceContext)
	return tc
}

// instrument wraps a handler with the router's per-endpoint SLO
// accounting (latency histogram + outcome-class counters) and the
// distributed-trace hop: a malformed X-Rmcc-Trace is a 400 before any
// routing work, a valid one parents a router span and is re-issued on
// the (possibly proxied) outbound request with the router's span ID as
// the new parent.
func (rt *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := rt.reg.Histogram("rmcc_router_request_duration_us",
		"router request latency in microseconds, by endpoint",
		obs.Pow2Buckets(1, 24), obs.L("endpoint", endpoint))
	classes := map[string]*obs.Counter{}
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		classes[class] = rt.reg.Counter("rmcc_router_requests_total",
			"router requests served, by endpoint and status class",
			obs.L("class", class), obs.L("endpoint", endpoint))
	}
	traced := endpoint != "healthz" && endpoint != "metrics" &&
		endpoint != "statusz" && endpoint != "tracez"
	return func(w http.ResponseWriter, r *http.Request) {
		tc, err := parseTraceHeader(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			classes["4xx"].Inc()
			return
		}
		var span obs.Span
		if traced {
			span = rt.spans.StartRemote("router."+endpoint, r.URL.Path, tc)
			// Downstream sees the trace rebased onto the router span: the
			// proxy forwards inbound headers, so rewriting this one makes
			// the router hop the node-side parent.
			tc.SpanID = span.ID()
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tc))
			if tc.Valid() {
				r.Header.Set(obs.TraceHeader, tc.String())
			}
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		hist.Observe(uint64(time.Since(start).Microseconds()))
		class := "2xx"
		switch {
		case sw.code >= 500:
			class = "5xx"
		case sw.code >= 400:
			class = "4xx"
		}
		classes[class].Inc()
		if traced {
			span.End()
		}
	}
}

// parseTraceHeader extracts the request's X-Rmcc-Trace context, rejecting
// oversized values on length alone (mirrors the node-side check).
func parseTraceHeader(r *http.Request) (obs.TraceContext, error) {
	v := r.Header.Get(obs.TraceHeader)
	if len(v) > obs.TraceHeaderLen {
		return obs.TraceContext{}, fmt.Errorf("%s header too long (%d bytes)", obs.TraceHeader, len(v))
	}
	tc, err := obs.ParseTraceContext(v)
	if err != nil {
		return obs.TraceContext{}, fmt.Errorf("%s: %v", obs.TraceHeader, err)
	}
	return tc, nil
}
