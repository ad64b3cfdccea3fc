package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"rmcc/internal/obs"
	"rmcc/internal/server"
	"rmcc/internal/server/client"
)

// This file is rmcc-top's one-shot forensic side: -trace renders the
// cluster-wide tree for one distributed trace (the daemon or router
// assembles it behind /debug/tracez?trace=), and -flight decodes a
// crash-durable flight-recorder dump — the file a SIGKILL'd node leaves
// behind — without needing any live process.

// runTrace fetches and renders one trace tree. Pointed at rmcc-router it
// shows every hop (router + each node a migrated session touched);
// pointed at a single daemon it shows that node's slice.
func runTrace(c *client.Client, traceID string, timeout time.Duration) error {
	if _, _, err := obs.ParseTraceID(traceID); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := c.Tracez(ctx, traceID, 0)
	if err != nil {
		return fmt.Errorf("tracez lookup: %w", err)
	}
	fmt.Printf("trace %s — %d spans (via %s, spans dropped %d)\n",
		traceID, len(resp.Spans), resp.Node, resp.SpansDropped)
	if len(resp.Spans) == 0 {
		fmt.Println("(no retained spans; the ring may have wrapped, or the trace never sampled)")
		return nil
	}
	fmt.Print(renderTraceTree(resp.Spans))
	return nil
}

// spanKey names a span across processes: span IDs are per-process
// ordinals, so the node stamp disambiguates.
type spanKey struct {
	node string
	id   uint64
}

// renderTraceTree renders spans as an indented tree. In-process edges
// follow Parent; cross-process edges follow Remote (the upstream span's
// ID in *its* process) best-effort — an unmatched Remote (ring wrapped
// upstream) degrades to a root. Offsets are relative to the earliest
// span so cross-node rows line up on one timeline.
func renderTraceTree(spans []server.TracezSpan) string {
	byKey := make(map[spanKey]int, len(spans))
	for i, sp := range spans {
		byKey[spanKey{sp.Node, sp.ID}] = i
	}
	children := make(map[int][]int, len(spans))
	var roots []int
	t0 := spans[0].StartNS
	for i, sp := range spans {
		if sp.StartNS < t0 {
			t0 = sp.StartNS
		}
		if sp.Parent != 0 {
			if pi, ok := byKey[spanKey{sp.Node, sp.Parent}]; ok {
				children[pi] = append(children[pi], i)
				continue
			}
		}
		if sp.Remote != 0 {
			// The propagated parent lives in another process; find it on
			// any other node (first match wins — collisions across two
			// upstream processes are possible but harmless for display).
			found := -1
			for j, cand := range spans {
				if cand.Node != sp.Node && cand.ID == sp.Remote {
					found = j
					break
				}
			}
			if found >= 0 {
				children[found] = append(children[found], i)
				continue
			}
		}
		roots = append(roots, i)
	}
	order := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			x, y := spans[idx[a]], spans[idx[b]]
			if x.StartNS != y.StartNS {
				return x.StartNS < y.StartNS
			}
			if x.Node != y.Node {
				return x.Node < y.Node
			}
			return x.ID < y.ID
		})
	}
	order(roots)
	for _, kids := range children {
		order(kids)
	}
	var sb strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := spans[i]
		detail := sp.Detail
		if detail != "" {
			detail = "  " + detail
		}
		fmt.Fprintf(&sb, "%10s %9dµs  %s%-24s [%s]%s\n",
			fmt.Sprintf("+%.3fms", float64(sp.StartNS-t0)/1e6),
			sp.DurationUS, strings.Repeat("  ", depth), sp.Name, sp.Node, detail)
		for _, k := range children[i] {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return sb.String()
}

// runFlight decodes a flight-recorder dump file ("-" for stdin) and
// prints its contents to w: header, span table (with trace IDs), events
// by kind name, and captured warn+ log lines. Exits non-zero via the
// caller when the file is missing or corrupt — the recovery smoke leans
// on that.
func runFlight(w io.Writer, path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	d, err := obs.ReadFlightDump(r)
	if err != nil {
		return fmt.Errorf("decode flight dump %s: %w", path, err)
	}
	fmt.Fprintf(w, "flight dump — node %s  records %d  dropped %d  spans %d  events %d  logs %d\n",
		d.Node, d.Records, d.Dropped, len(d.Spans), len(d.Events), len(d.Logs))
	for _, sp := range d.Spans {
		trace := sp.TraceID()
		if trace == "" {
			trace = "-"
		}
		detail := sp.Detail
		if detail != "" {
			detail = "  " + detail
		}
		fmt.Fprintf(w, "span %s %10dµs  parent=%d remote=%d trace=%s  %s%s\n",
			time.Unix(0, sp.Start).UTC().Format(time.RFC3339Nano),
			uint64(sp.Duration)/1e3, sp.Parent, sp.Remote, trace, sp.Name, detail)
	}
	for _, ev := range d.Events {
		fmt.Fprintf(w, "event seq=%d kind=%s addr=%#x v1=%d v2=%d\n",
			ev.Seq, ev.Kind, ev.Addr, ev.V1, ev.V2)
	}
	for _, l := range d.Logs {
		fmt.Fprintf(w, "log %s [%s] %s\n",
			time.Unix(0, l.TimeNS).UTC().Format(time.RFC3339Nano), l.Level, l.Line)
	}
	return nil
}
