// Command rmccd serves the secure-memory simulator as a multi-tenant
// daemon: clients create sessions (one warm engine each, sharded across
// single-owner workers) and replay access streams against them over HTTP.
// See docs/SERVICE.md for the API.
//
// Examples:
//
//	rmccd -addr 127.0.0.1:8077
//	rmccd -addr 127.0.0.1:0 -port-file /tmp/rmccd.addr   # ephemeral port
//	rmccd -shards 8 -idle-ttl 5m -drain 10s
//	rmccd -log-level debug -log-format json
//	rmccd -debug-addr 127.0.0.1:8078                     # /statusz, /debug/pprof, /debug/tracez
//	rmccd -snapshot-dir /var/lib/rmcc -flight-every 1s   # crash recovery + durable flight dumps
//
// Operational logs are structured (text or JSON, -log-format) and leveled
// (-log-level); every session-scoped line carries session/shard/workload/
// seed fields. The debug surface (statusz, tracez, pprof) only exists
// when -debug-addr is set, on its own listener.
//
// SIGINT/SIGTERM triggers a graceful shutdown: /healthz flips to 503, new
// work is refused, and in-flight replays drain until -drain expires, after
// which they are force-cancelled. Exit status 0 means a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/obs"
	"rmcc/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8077", "listen address (host:0 picks an ephemeral port)")
		portFile    = flag.String("port-file", "", "write the resolved listen address to this file (for scripts wrapping host:0)")
		shards      = flag.Int("shards", 0, "session shard workers (default GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "per-shard job queue depth (default 64)")
		idleTTL     = flag.Duration("idle-ttl", 10*time.Minute, "evict sessions idle this long (<0 disables)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight replays")
		chunk       = flag.Int("chunk", 0, "replay chunk size in accesses (default 4096)")
		snapDir     = flag.String("snapshot-dir", "", "durable session checkpoints live here; enables crash recovery (off when empty)")
		snapEvery   = flag.Duration("snapshot-every", 30*time.Second, "periodic checkpoint interval (with -snapshot-dir)")
		nodeID      = flag.String("node-id", "", "node name stamped on spans and flight dumps (default: resolved listen address)")
		flightFile  = flag.String("flight-file", "", "crash-durable flight-recorder dump path (default <snapshot-dir>/flight.rec; off when both empty)")
		flightEvery = flag.Duration("flight-every", 2*time.Second, "periodic flight-recorder flush interval (with -flight-file)")
		flightCap   = flag.Int("flight-cap", 1<<20, "flight-recorder ring capacity in bytes: the one store behind /debug/tracez, /debug/flightz and flight dumps")
		debugAddr   = flag.String("debug-addr", "", "serve /statusz, /debug/tracez and /debug/pprof on this extra listener (off when empty)")
		debugPort   = flag.String("debug-port-file", "", "write the resolved debug listen address to this file")
		version     = flag.Bool("version", false, "print version and exit")
		logLevel    slog.Level
		logFormat   obs.LogFormat
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "minimum log level: debug|info|warn|error")
	flag.TextVar(&logFormat, "log-format", obs.LogFormat("text"), "log line encoding: text|json")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmccd"))
		return 0
	}

	log := obs.NewLogger(os.Stderr, logLevel, logFormat).
		With("version", buildinfo.Version())

	cfg := server.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		IdleTTL:       *idleTTL,
		ChunkAccesses: *chunk,
		Logger:        log,
		SnapshotDir:   *snapDir,
		SnapshotEvery: *snapEvery,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "error", err)
		return 2
	}
	resolved := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(resolved), 0o644); err != nil {
			log.Error("write port file failed", "path", *portFile, "error", err)
			return 2
		}
	}

	cfg.NodeID = *nodeID
	if cfg.NodeID == "" {
		cfg.NodeID = resolved
	}

	// The flight recorder is the daemon's one record store: finished spans
	// and warn+ log lines land in its ring at zero steady-state
	// allocations, /debug/tracez reads it, and /debug/flightz?dump=1 serves
	// it live. With a dump path (explicit, or implied by -snapshot-dir) a
	// flusher goroutine persists the ring durably every -flight-every, so
	// even a SIGKILL'd process leaves a recent postmortem file behind.
	flight := obs.NewFlightRecorder(*flightCap, cfg.NodeID)
	cfg.Flight = flight
	obs.AttachFlight(log, flight)
	ffile := *flightFile
	if ffile == "" && *snapDir != "" {
		ffile = filepath.Join(*snapDir, "flight.rec")
	}

	srv := server.New(cfg)
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	fmt.Printf("rmccd: %s listening on http://%s\n", buildinfo.String("rmccd"), resolved)
	log.Info("listening", "addr", resolved)

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Error("debug listen failed", "addr", *debugAddr, "error", err)
			srv.Close()
			return 2
		}
		debugResolved := dln.Addr().String()
		if *debugPort != "" {
			if err := os.WriteFile(*debugPort, []byte(debugResolved), 0o644); err != nil {
				log.Error("write debug port file failed", "path", *debugPort, "error", err)
				srv.Close()
				return 2
			}
		}
		debugSrv = &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Warn("debug serve stopped", "error", err)
			}
		}()
		log.Info("debug endpoints up", "addr", debugResolved)
	}

	var flightStop, flightDone chan struct{}
	if ffile != "" {
		if err := flight.DumpToFile(ffile); err != nil {
			log.Error("flight dump failed", "path", ffile, "error", err)
			srv.Close()
			return 2
		}
		flightStop = make(chan struct{})
		flightDone = make(chan struct{})
		go func() {
			defer close(flightDone)
			t := time.NewTicker(*flightEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := flight.DumpToFile(ffile); err != nil {
						log.Warn("flight flush failed", "path", ffile, "error", err)
					}
				case <-flightStop:
					return
				}
			}
		}()
		log.Info("flight recorder on", "path", ffile, "cap_bytes", flight.Cap(), "every", *flightEvery)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	clean := true
	select {
	case sig := <-sigCh:
		log.Info("draining", "signal", sig.String(), "deadline", *drain)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Warn("drain deadline expired; force-cancelling replays")
			srv.ForceCancel()
			// Give cancelled handlers a moment to unwind, then close.
			time.Sleep(200 * time.Millisecond)
			_ = httpSrv.Close()
			clean = false
		}
		cancel()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "error", err)
			srv.Close()
			return 2
		}
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	// With durable checkpoints on, a graceful exit's last act is a final
	// checkpoint of every live session, so nothing is lost across restarts.
	if *snapDir != "" {
		n := srv.CheckpointAll(context.Background())
		log.Info("final checkpoint", "sessions", n)
	}
	if flightDone != nil {
		close(flightStop)
		<-flightDone
		// One last flush so the dump covers the drain itself.
		if err := flight.DumpToFile(ffile); err != nil {
			log.Warn("final flight flush failed", "path", ffile, "error", err)
		} else {
			log.Info("flight recorder flushed", "path", ffile, "records", flight.Records())
		}
	}
	srv.Close()
	if clean {
		log.Info("shutdown complete")
		return 0
	}
	log.Warn("shutdown forced after drain deadline")
	return 1
}
