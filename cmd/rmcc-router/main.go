// Command rmcc-router fronts a set of rmccd nodes with a consistent-hash
// session router: session IDs are hashed onto a virtual-node ring, every
// session-scoped request is proxied to its owning node, nodes are
// health-checked off their /statusz + /metrics surface, and
// POST /v1/cluster/nodes/{id}/drain migrates a node's sessions to their
// new ring owners via snapshot download/restore. Clients use the exact
// same session API they would against a single rmccd. See
// docs/CLUSTER.md.
//
// Examples:
//
//	rmcc-router -nodes 127.0.0.1:8077,127.0.0.1:8078,127.0.0.1:8079
//	rmcc-router -addr 127.0.0.1:0 -port-file /tmp/router.addr -nodes ...
//	rmcc-router -nodes ... -health-every 1s -vnodes 200
//
// SIGINT/SIGTERM drains: in-flight proxied requests finish (bounded by
// -drain), then the process exits 0.
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
	"strings"
	"syscall"
	"time"

	"rmcc/internal/buildinfo"
	"rmcc/internal/cluster"
	"rmcc/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8070", "listen address (host:0 picks an ephemeral port)")
		portFile    = flag.String("port-file", "", "write the resolved listen address to this file (for scripts wrapping host:0)")
		nodes       = flag.String("nodes", "", "comma-separated rmccd node addresses (host:port or http://host:port); required")
		vnodes      = flag.Int("vnodes", 0, "virtual nodes per physical node on the hash ring (default 160)")
		healthEvery = flag.Duration("health-every", 2*time.Second, "node health-check poll interval")
		flightCap   = flag.Int("flight-cap", 1<<20, "flight-recorder ring capacity in bytes: the router's span store behind /debug/tracez")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight proxied requests")
		version     = flag.Bool("version", false, "print version and exit")
		logLevel    slog.Level
		logFormat   obs.LogFormat
	)
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "minimum log level: debug|info|warn|error")
	flag.TextVar(&logFormat, "log-format", obs.LogFormat("text"), "log line encoding: text|json")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rmcc-router"))
		return 0
	}

	log := obs.NewLogger(os.Stderr, logLevel, logFormat).
		With("version", buildinfo.Version())

	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		fmt.Fprintln(os.Stderr, "rmcc-router: -nodes is required (comma-separated rmccd addresses)")
		return 2
	}

	rt, err := cluster.New(cluster.Config{
		Nodes:       nodeList,
		VNodes:      *vnodes,
		HealthEvery: *healthEvery,
		FlightCap:   *flightCap,
		Logger:      log,
	})
	if err != nil {
		log.Error("router init failed", "error", err)
		return 2
	}
	// One synchronous check cycle before serving, so the first requests
	// see real node health instead of the optimistic boot state.
	rt.CheckNodes(context.Background())

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

	httpSrv := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	fmt.Printf("rmcc-router: %s listening on http://%s, %d nodes\n",
		buildinfo.String("rmcc-router"), resolved, len(nodeList))
	log.Info("listening", "addr", resolved, "nodes", len(nodeList))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	clean := true
	select {
	case sig := <-sigCh:
		log.Info("draining", "signal", sig.String(), "deadline", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Warn("drain deadline expired; closing")
			_ = httpSrv.Close()
			clean = false
		}
		cancel()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "error", err)
			rt.Close()
			return 2
		}
	}
	rt.Close()
	if clean {
		log.Info("shutdown complete")
		return 0
	}
	log.Warn("shutdown forced after drain deadline")
	return 1
}
