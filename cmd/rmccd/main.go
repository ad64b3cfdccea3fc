// Command rmccd serves the secure-memory simulator as a multi-tenant
// daemon: clients create sessions (one warm engine each, stepped by the
// request that holds the session's replay lease) and replay access
// streams against them over HTTP. See docs/SERVICE.md for the API.
//
// Examples:
//
//	rmccd -addr 127.0.0.1:8077
//	rmccd -addr 127.0.0.1:0 -port-file /tmp/rmccd.addr   # ephemeral port
//	rmccd -idle-ttl 5m -drain 10s
//	rmccd -log-level debug -log-format json
//	rmccd -debug-addr 127.0.0.1:8078                     # /debug/pprof
//	rmccd -snapshot-dir /var/lib/rmcc                    # crash recovery + flight file
//
// Operational logs are structured (text or JSON, -log-format) and leveled
// (-log-level); every session-scoped line carries session/workload/seed
// fields. /statusz, /debug/tracez and /debug/flightz are served on
// the service address; the profiling surface (/debug/pprof) only exists
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
		addr       = flag.String("addr", "127.0.0.1:8077", "listen address (host:0 picks an ephemeral port)")
		portFile   = flag.String("port-file", "", "write the resolved listen address to this file (for scripts wrapping host:0)")
		idleTTL    = flag.Duration("idle-ttl", 10*time.Minute, "evict sessions idle this long (<0 disables)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight replays")
		chunk      = flag.Int("chunk", 0, "replay chunk size in accesses (default 4096)")
		snapDir    = flag.String("snapshot-dir", "", "durable session checkpoints live here; enables crash recovery (off when empty)")
		snapEvery  = flag.Duration("snapshot-every", 30*time.Second, "periodic checkpoint interval (with -snapshot-dir)")
		nodeID     = flag.String("node-id", "", "node name stamped on spans and flight dumps (default: resolved listen address)")
		flightFile = flag.String("flight-file", "", "map the flight recorder onto this file, which a killed daemon leaves as its postmortem; an existing one is kept as <file>.prev (default <snapshot-dir>/flight.rec; off when both empty)")
		flightCap  = flag.Int("flight-cap", 1<<20, "flight-recorder ring capacity in bytes: the one store behind /debug/tracez, /debug/flightz and flight dumps")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof on this extra listener (off when empty)")
		debugPort  = flag.String("debug-port-file", "", "write the resolved debug listen address to this file")
		version    = flag.Bool("version", false, "print version and exit")
		logLevel   slog.Level
		logFormat  obs.LogFormat
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
	// it live. With a flight file (explicit, or implied by -snapshot-dir)
	// the ring is mapped onto it, so even a SIGKILL'd process leaves every
	// record it wrote behind; the checkpoint cycle and the graceful exit
	// fsync it.
	ffile := *flightFile
	if ffile == "" && *snapDir != "" {
		// server.New creates the snapshot dir, but the flight file is
		// mapped before it runs.
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			log.Error("create snapshot dir failed", "path", *snapDir, "error", err)
			return 2
		}
		ffile = filepath.Join(*snapDir, "flight.rec")
	}
	var flight *obs.FlightRecorder
	if ffile != "" {
		if flight, err = obs.OpenFlightFile(ffile, *flightCap, cfg.NodeID); err != nil {
			log.Error("flight file failed", "path", ffile, "error", err)
			return 2
		}
		log.Info("flight recorder mapped", "path", ffile, "cap_bytes", flight.Cap())
	} else {
		flight = obs.NewFlightRecorder(*flightCap, cfg.NodeID)
	}
	cfg.Flight = flight
	obs.AttachFlight(log, flight)

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
		n := srv.CheckpointAll()
		log.Info("final checkpoint", "sessions", n)
	}
	if err := flight.Sync(); err != nil {
		log.Warn("flight sync failed", "path", ffile, "error", err)
	}
	srv.Close()
	if clean {
		log.Info("shutdown complete")
		return 0
	}
	log.Warn("shutdown forced after drain deadline")
	return 1
}
