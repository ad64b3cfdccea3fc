// Command rmcc-loadgen benchmarks an rmccd daemon: it creates N sessions,
// replays a workload through every one concurrently, and reports
// per-session and aggregate service throughput plus client-observed
// replay-latency percentiles. With -check it also runs the same
// simulation directly in-process and verifies the service returned
// bit-identical engine stats — the no-behavioral-drift guarantee of the
// service layer.
//
// By default each replay runs the session's bound generator server-side
// (no request body). -trace-file instead uploads a recorded rmcc-trace
// file, whose body is already a replay body, once per replay; record one
// with rmcc-trace -record to replay a generator stream over the upload
// path.
//
// Examples:
//
//	rmcc-loadgen -addr http://127.0.0.1:8077 -sessions 8 -workload canneal -accesses 50000
//	rmcc-loadgen -addr http://$ADDR -sessions 8 -size test -check -metrics-out -
//	rmcc-trace -record -workload canneal -size test -n 50000 -o canneal.rmtr
//	rmcc-loadgen -trace-file canneal.rmtr -check  # upload a recorded trace
//	rmcc-loadgen -replays 16 -accesses 5000    # 16 latency samples per session
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flag"

	"rmcc"
	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/secmem/counter"
	"rmcc/internal/secmem/engine"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
	"rmcc/internal/trace"
	"rmcc/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8077", "rmccd base URL (scheme optional)")
		sessions   = flag.Int("sessions", 8, "concurrent sessions to drive")
		name       = flag.String("workload", "canneal", "workload to replay")
		sizeStr    = flag.String("size", "test", "workload scale: test|small|full")
		modeStr    = flag.String("mode", "rmcc", "protection: nonsecure|baseline|rmcc")
		schemeStr  = flag.String("scheme", "morphable", "counters: sgx|sc64|morphable")
		accesses   = flag.Uint64("accesses", 50_000, "accesses to replay per request")
		replays    = flag.Int("replays", 1, "sequential replay requests per session (each a latency sample; the stream continues across them)")
		seed       = flag.Uint64("seed", 1, "simulation seed (all sessions share it)")
		traceFile  = flag.String("trace-file", "", "upload this rmcc-trace file once per replay instead of running the server-side generator")
		check      = flag.Bool("check", false, "run the same simulation in-process and require bit-identical engine stats")
		crashAfter = flag.Uint64("crash-after", 0, "SIGKILL -crash-pid once this many aggregate accesses have applied (crash-recovery testing; exit 0 means the kill fired)")
		crashPID   = flag.Int("crash-pid", 0, "daemon PID to kill for -crash-after")
		resume     = flag.Bool("resume", false, "adopt the daemon's existing sessions and top each up to -accesses×-replays total accesses instead of creating new ones")
		keep       = flag.Bool("keep", false, "leave the sessions on the daemon instead of deleting them")
		timeout    = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		metricsOut = flag.String("metrics-out", "", "scrape /metrics after the run to this file (- for stdout), with client-side latency quantiles appended")
		traceIDs   = flag.String("trace-ids-out", "", "write one \"session trace-id\" line per session to this file (- for stdout)")
		version    = flag.Bool("version", false, "print version and exit")
		logLevel   slog.Level
		logFormat  obs.LogFormat
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelWarn, "minimum log level: debug|info|warn|error")
	flag.TextVar(&logFormat, "log-format", obs.LogFormat("text"), "log line encoding: text|json")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-loadgen"))
		return
	}
	lg := obs.NewLogger(os.Stderr, logLevel, logFormat)
	if *replays < 1 {
		*replays = 1
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(base)
	if err := c.Health(ctx); err != nil {
		fatal(fmt.Errorf("daemon not healthy at %s: %w", base, err))
	}

	// A trace file provides the raw RMTR bytes (uploaded per replay) and
	// the loaded stream (footprint, -check).
	var (
		traceBytes []byte
		rep        *trace.Replay
	)
	if *traceFile != "" {
		var err error
		if traceBytes, err = os.ReadFile(*traceFile); err != nil {
			fatal(err)
		}
		if rep, err = trace.Load(bytes.NewReader(traceBytes)); err != nil {
			fatal(err)
		}
	}

	scfg := server.SessionConfig{
		Mode:     *modeStr,
		Scheme:   *schemeStr,
		Seed:     *seed,
		Workload: *name,
		Size:     *sizeStr,
	}
	if rep != nil {
		// Trace sessions declare their footprint instead of binding a
		// generator, exactly like any other streaming client.
		scfg = server.SessionConfig{
			Mode: *modeStr, Scheme: *schemeStr, Seed: *seed,
			FootprintBytes: rep.FootprintBytes(), Label: rep.Name(),
		}
	}

	// -crash-after wires a SIGKILL trigger into the progress stream: once
	// the aggregate applied-access count crosses the threshold the daemon
	// dies mid-replay, exactly what the recovery smoke needs.
	var crashTotal atomic.Uint64
	var crashKilled atomic.Bool
	var progressEvery uint64
	var mkProgress func() func(uint64)
	if *crashAfter > 0 {
		if *crashPID <= 0 {
			fatal(fmt.Errorf("-crash-after requires -crash-pid"))
		}
		if rep != nil {
			fatal(fmt.Errorf("-crash-after is not supported with -trace-file (progress frames drive the kill)"))
		}
		progressEvery = 500
		mkProgress = func() func(uint64) {
			var last uint64
			return func(applied uint64) {
				d := applied - last
				last = applied
				if crashTotal.Add(d) >= *crashAfter && crashKilled.CompareAndSwap(false, true) {
					fmt.Fprintf(os.Stderr, "rmcc-loadgen: crash threshold reached (%d accesses applied): SIGKILL pid %d\n",
						crashTotal.Load(), *crashPID)
					_ = syscall.Kill(*crashPID, syscall.SIGKILL)
				}
			}
		}
	}

	// -resume adopts whatever sessions survived a daemon restart (possibly
	// restarted from access zero by the fresh-session fallback) and tops
	// each one up to the full target, so -check passes exactly when
	// recovery preserved bit-identical simulator state.
	var resumeInfos []server.SessionInfo
	if *resume {
		infos, err := c.ListSessions(ctx)
		if err != nil {
			fatal(fmt.Errorf("-resume: list sessions: %w", err))
		}
		if len(infos) == 0 {
			fatal(fmt.Errorf("-resume: daemon has no sessions"))
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
		resumeInfos = infos
		*sessions = len(infos)
	}

	// retryReplay survives a router drain happening mid-run: a 409 (the
	// session is briefly locked by a migration's checkpoint lease) or 503
	// (ring membership settling) rejects the request before any access
	// applies, so resending is safe. Anything else — including an error
	// frame mid-stream, after accesses may have applied — is never
	// retried; -check would silently pass over duplicated accesses.
	retryReplay := func(f func() (server.ReplayStats, error)) (server.ReplayStats, error) {
		for attempt := 0; ; attempt++ {
			stats, err := f()
			if err == nil || attempt >= 40 || !transientReplayError(err) {
				return stats, err
			}
			lg.Debug("replay rejected, retrying", "attempt", attempt, "error", err)
			select {
			case <-ctx.Done():
				return stats, err
			case <-time.After(250 * time.Millisecond):
			}
		}
	}

	results := make([]result, *sessions)
	start := time.Now()
	var wg sync.WaitGroup
	// Create barrier: every session exists (and, on a -snapshot-dir daemon,
	// has its durable birth checkpoint) before the first replay starts. This
	// keeps -crash-after deterministic — the SIGKILL always finds all N
	// sessions on disk — instead of racing slow creates against fast replays.
	var created sync.WaitGroup
	if !*resume {
		created.Add(*sessions)
	}
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := result{idx: i, durs: make([]float64, 0, *replays)}
			defer func() { results[i] = r }()
			// One trace context per session: the create, every replay, and
			// the delete share one 128-bit trace ID, so a replay that a
			// drain migrates mid-run still reads as a single cross-node
			// trace in /debug/tracez.
			tc := obs.MintTraceContext()
			r.trace = tc.TraceID()
			c := c.WithTraceContext(tc)
			var onp func(uint64)
			if mkProgress != nil {
				onp = mkProgress()
			}
			if *resume {
				info := resumeInfos[i]
				r.id = info.ID
				target := *accesses * uint64(*replays)
				t0 := time.Now()
				if info.Accesses < target {
					rt0 := time.Now()
					r.stats, r.err = retryReplay(func() (server.ReplayStats, error) {
						return c.ReplayWorkload(ctx, info.ID, target-info.Accesses, progressEvery, onp)
					})
					if r.err == nil {
						r.durs = append(r.durs, time.Since(rt0).Seconds())
					}
				} else {
					var snap server.SnapshotResponse
					snap, r.err = c.Snapshot(ctx, info.ID)
					r.stats = snap.Stats
				}
				r.secs = time.Since(t0).Seconds()
				if r.err != nil {
					lg.Warn("session failed", "session", info.ID, "error", r.err)
				}
				if !*keep {
					if derr := c.DeleteSession(ctx, info.ID); derr != nil && r.err == nil {
						r.err = fmt.Errorf("delete: %w", derr)
					}
				}
				return
			}
			info, err := c.CreateSession(ctx, scfg)
			created.Done()
			if err != nil {
				r.err = fmt.Errorf("create: %w", err)
				return
			}
			r.id = info.ID
			lg.Debug("session created", "session", info.ID)
			created.Wait()
			t0 := time.Now()
			for k := 0; k < *replays && r.err == nil; k++ {
				rt0 := time.Now()
				// A trace upload sends the whole file each request, which
				// matches trace.Replay's looping semantics; the generator
				// continues one server-side stream across requests.
				r.stats, r.err = retryReplay(func() (server.ReplayStats, error) {
					if rep != nil {
						return c.ReplayTrace(ctx, info.ID, bytes.NewReader(traceBytes))
					}
					return c.ReplayWorkload(ctx, info.ID, *accesses, progressEvery, onp)
				})
				if r.err == nil {
					r.durs = append(r.durs, time.Since(rt0).Seconds())
				}
			}
			r.secs = time.Since(t0).Seconds()
			if r.err != nil {
				lg.Warn("session failed", "session", info.ID, "error", r.err)
			}
			if !*keep {
				if derr := c.DeleteSession(ctx, info.ID); derr != nil && r.err == nil {
					r.err = fmt.Errorf("delete: %w", derr)
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	// Written before the crash branch on purpose: the recovery smoke needs
	// the session→trace mapping to interrogate flight dumps and tracez
	// after the daemon it killed comes back.
	if *traceIDs != "" {
		var sb strings.Builder
		for _, r := range results {
			if r.id != "" && r.trace != "" {
				fmt.Fprintf(&sb, "%s %s\n", r.id, r.trace)
			}
		}
		if *traceIDs == "-" {
			fmt.Print(sb.String())
		} else if err := os.WriteFile(*traceIDs, []byte(sb.String()), 0o644); err != nil {
			fatal(err)
		}
	}

	if *crashAfter > 0 {
		// Replay/delete errors after the kill are the point, not failures.
		if crashKilled.Load() {
			fmt.Printf("crash: daemon pid %d killed after %d aggregate accesses\n",
				*crashPID, crashTotal.Load())
			return
		}
		fatal(fmt.Errorf("crash threshold %d never reached (%d accesses applied)",
			*crashAfter, crashTotal.Load()))
	}

	var total uint64
	var allDurs []float64
	failed := 0
	for _, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "rmcc-loadgen: session %d: %v\n", r.idx, r.err)
			continue
		}
		total += r.stats.Accesses
		allDurs = append(allDurs, r.durs...)
		p50, p95, p99 := quantiles(r.durs)
		fmt.Printf("session %-10s %8d accesses  %6.2fs  ctr-miss %.1f%%  memo-hit %.1f%%  p50 %s  p95 %s  p99 %s\n",
			r.id, r.stats.Accesses, r.secs,
			100*r.stats.CtrMissRate, 100*r.stats.MemoHitRateOnMisses,
			fmtDur(p50), fmtDur(p95), fmtDur(p99))
	}
	fmt.Printf("total: %d sessions, %d accesses in %.2fs (%.0f accesses/s aggregate)\n",
		*sessions, total, wall, float64(total)/wall)
	if len(allDurs) > 0 {
		p50, p95, p99 := quantiles(allDurs)
		fmt.Printf("replay latency (%d samples): p50 %s  p95 %s  p99 %s\n",
			len(allDurs), fmtDur(p50), fmtDur(p95), fmtDur(p99))
		printSlowestTraces(results, p99)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d sessions failed", failed, *sessions))
	}

	if *check {
		// Sequential replays continue one deterministic stream, and trace
		// uploads loop the recorded one, so the final cumulative stats
		// equal one direct run of replays × (accesses per replay) — exact
		// for any -replays.
		var directW workload.Workload
		wantAccesses := *accesses * uint64(*replays)
		if rep != nil {
			directW = rep
			wantAccesses = uint64(rep.Len()) * uint64(*replays)
		} else {
			size, err := workload.ParseSize(*sizeStr)
			if err != nil {
				fatal(err)
			}
			w, ok := rmcc.WorkloadByName(size, *seed, *name)
			if !ok {
				fatal(fmt.Errorf("unknown workload %q", *name))
			}
			directW = w
		}
		if err := checkEquivalence(results[0].stats, directW, *modeStr, *schemeStr, *seed, wantAccesses); err != nil {
			fatal(err)
		}
		for _, r := range results[1:] {
			if !reflect.DeepEqual(r.stats.Engine, results[0].stats.Engine) {
				fatal(fmt.Errorf("session %s engine stats diverge from session %s (same seed/workload)",
					r.id, results[0].id))
			}
		}
		fmt.Println("check: service stats bit-identical to the direct simulation ✓")
	}

	if *metricsOut != "" {
		text, err := c.RawMetrics(ctx)
		if err != nil {
			fatal(fmt.Errorf("scrape metrics: %w", err))
		}
		text += latencyMetrics(results, allDurs)
		if *metricsOut == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(*metricsOut, []byte(text), 0o644); err != nil {
			fatal(err)
		}
	}
}

// result accumulates one session's outcome; durs holds one
// client-observed latency sample per replay request, in seconds, and
// trace is the session's minted 32-hex distributed trace ID.
type result struct {
	idx   int
	id    string
	trace string
	stats server.ReplayStats
	secs  float64
	durs  []float64
	err   error
}

// quantiles returns p50/p95/p99 of a sample in seconds.
func quantiles(durs []float64) (p50, p95, p99 float64) {
	if len(durs) == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	return obs.QuantileSorted(sorted, 0.50),
		obs.QuantileSorted(sorted, 0.95),
		obs.QuantileSorted(sorted, 0.99)
}

func fmtDur(secs float64) string {
	return time.Duration(secs * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// printSlowestTraces names the replay samples at or beyond the aggregate
// p99 (capped at 5, slowest first) with their trace IDs — the IDs to
// paste into /debug/tracez?trace= to see where a tail request's time
// went, hop by hop.
func printSlowestTraces(results []result, p99 float64) {
	type sample struct {
		secs    float64
		session string
		trace   string
	}
	var slow []sample
	for _, r := range results {
		if r.err != nil || r.trace == "" {
			continue
		}
		for _, d := range r.durs {
			if d >= p99 {
				slow = append(slow, sample{secs: d, session: r.id, trace: r.trace})
			}
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].secs > slow[j].secs })
	if len(slow) > 5 {
		slow = slow[:5]
	}
	for _, s := range slow {
		fmt.Printf("slow replay: %s  session %s  trace %s\n", fmtDur(s.secs), s.session, s.trace)
	}
}

// latencyMetrics renders the client-observed replay latency quantiles in
// Prometheus text form, appended to the scraped daemon page so one
// -metrics-out artifact carries both server- and client-side views.
func latencyMetrics(results []result, allDurs []float64) string {
	var sb strings.Builder
	sb.WriteString("# HELP loadgen_replay_latency_seconds client-observed replay request latency\n")
	sb.WriteString("# TYPE loadgen_replay_latency_seconds gauge\n")
	var sum float64
	for _, d := range allDurs {
		sum += d
	}
	p50, p95, p99 := quantiles(allDurs)
	fmt.Fprintf(&sb, "loadgen_replay_latency_seconds{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(&sb, "loadgen_replay_latency_seconds{quantile=\"0.95\"} %g\n", p95)
	fmt.Fprintf(&sb, "loadgen_replay_latency_seconds{quantile=\"0.99\"} %g\n", p99)
	fmt.Fprintf(&sb, "loadgen_replay_latency_seconds_count %d\n", len(allDurs))
	fmt.Fprintf(&sb, "loadgen_replay_latency_seconds_sum %g\n", sum)
	for _, r := range results {
		if r.err != nil || len(r.durs) == 0 {
			continue
		}
		sp50, sp95, sp99 := quantiles(r.durs)
		fmt.Fprintf(&sb, "loadgen_session_replay_latency_seconds{session=%q,quantile=\"0.5\"} %g\n", r.id, sp50)
		fmt.Fprintf(&sb, "loadgen_session_replay_latency_seconds{session=%q,quantile=\"0.95\"} %g\n", r.id, sp95)
		fmt.Fprintf(&sb, "loadgen_session_replay_latency_seconds{session=%q,quantile=\"0.99\"} %g\n", r.id, sp99)
	}
	return sb.String()
}

// checkEquivalence reruns the first session's simulation in-process
// through the public sim driver (over w — a generator or a loaded trace)
// and requires identical stats: the service layer must add no behavioral
// drift, from either replay source.
func checkEquivalence(got server.ReplayStats, w workload.Workload, modeStr, schemeStr string, seed, accesses uint64) error {
	mode, err := engine.ParseMode(modeStr)
	if err != nil {
		return err
	}
	scheme, err := counter.ParseScheme(schemeStr)
	if err != nil {
		return err
	}
	engCfg := rmcc.DefaultEngineConfig(mode, scheme)
	engCfg.InitSeed = seed
	cfg := rmcc.DefaultLifetimeConfig(engCfg)
	cfg.MaxAccesses = accesses
	cfg.Seed = seed
	res := rmcc.RunLifetime(w, cfg)

	if res.Accesses != got.Accesses {
		return fmt.Errorf("check: accesses differ: service %d, direct %d", got.Accesses, res.Accesses)
	}
	if res.LLCMissReads != got.LLCMissReads || res.LLCMissWrites != got.LLCMissWrites {
		return fmt.Errorf("check: LLC miss counts differ: service %d/%d, direct %d/%d",
			got.LLCMissReads, got.LLCMissWrites, res.LLCMissReads, res.LLCMissWrites)
	}
	if !reflect.DeepEqual(res.Engine, got.Engine) {
		return fmt.Errorf("check: engine stats differ between service and direct run:\nservice: %+v\ndirect:  %+v",
			got.Engine, res.Engine)
	}
	if res.MaxCounter != got.MaxCounter {
		return fmt.Errorf("check: max counter differs: service %d, direct %d", got.MaxCounter, res.MaxCounter)
	}
	return nil
}

// transientReplayError reports whether a replay failed with a
// pre-apply rejection (HTTP 409 or 503). A mid-stream error frame
// arrives on a 200 response and carries that status instead, so it can
// never look transient here.
func transientReplayError(err error) bool {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Status == http.StatusConflict || ae.Status == http.StatusServiceUnavailable
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmcc-loadgen:", err)
	os.Exit(1)
}
