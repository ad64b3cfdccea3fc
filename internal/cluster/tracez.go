package cluster

import (
	"net/http"
	"sort"
	"sync"

	"rmcc/internal/server"
)

// routerNode is the node stamp on the router's own tracez rows. Span IDs
// are per-process ordinals, so the stamp is what keeps merged rows
// attributable (and router/node ID collisions harmless).
const routerNode = "router"

// handleTracez is the cluster-wide trace surface. Without ?trace= it is
// the router's own slowest-spans view; with ?trace=<32-hex id> it fans
// the lookup out to every node, merges their rows with the router's, and
// returns one deterministic tree: rows sorted by (start, node, span ID),
// each stamped with the process that recorded it. An unreachable node
// degrades the view (its slice is missing), never the request.
func (rt *Router) handleTracez(w http.ResponseWriter, r *http.Request) {
	resp, err := server.Tracez(rt.spans, routerNode, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if resp.Trace == "" {
		writeJSON(w, http.StatusOK, resp)
		return
	}

	type result struct {
		node *node
		resp server.TracezResponse
		err  error
	}
	results := make([]result, len(rt.nodeList))
	var wg sync.WaitGroup
	for i, n := range rt.nodeList {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			nresp, err := n.api.Tracez(r.Context(), resp.Trace, 0)
			results[i] = result{node: n, resp: nresp, err: err}
		}(i, n)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			rt.log.Warn("tracez: node unreachable", "node", res.node.id, "error", res.err)
			continue
		}
		resp.SpansDropped += res.resp.SpansDropped
		resp.Spans = append(resp.Spans, res.resp.Spans...)
	}
	sort.Slice(resp.Spans, func(i, j int) bool {
		a, b := resp.Spans[i], resp.Spans[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.ID < b.ID
	})
	writeJSON(w, http.StatusOK, resp)
}
