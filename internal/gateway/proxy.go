// The proxy path: shard key computation, the failover loop, and the
// run/digest affinity maps. One request is tried against the ring's
// preference order — healthy backends first, degraded as a last
// resort — with every attempt on every backend carrying the same
// idempotency chain key, so however many backends a request visits,
// at most one conclusive execution is ever pinned for it.
package gateway

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"roload/internal/client"
)

// shardKey derives the routing key of a compile group: requests that
// would hit the same backend-side image cache land on the same
// backend. The digest form (image_digest present) routes straight by
// digest so run-by-digest follows the image wherever it was stored.
func shardKey(imageDigest, source string, asm bool, harden string, optimize bool) string {
	if imageDigest != "" {
		return imageDigest
	}
	hash := sha256.New()
	hash.Write([]byte(source))
	hash.Write([]byte{0})
	if asm {
		hash.Write([]byte{1})
	} else {
		hash.Write([]byte{0})
	}
	hash.Write([]byte(harden))
	hash.Write([]byte{0})
	if optimize {
		hash.Write([]byte{1})
	}
	return hex.EncodeToString(hash.Sum(nil))
}

// proxyOp describes one proxied exchange.
type proxyOp struct {
	endpoint string // metrics label
	method   string
	path     string
	body     []byte
	// runID is the logical run id forwarded in Roload-Trace and
	// recorded in the run→backend map ("" for non-run requests).
	runID string
	// affinity, when non-"", is tried before the ring order (a recorded
	// run→backend or digest→backend mapping).
	affinity string
	// retryNotFound treats a 404 as "try the next backend": the
	// resource may live on another shard (digest or run-id routed GETs).
	retryNotFound bool
	// storePeers is the request's artifact replica set; each attempt
	// forwards it (minus the backend being attempted) in the
	// Roload-Store-Peers header, steering the backend's artifact pushes
	// and peer fetches.
	storePeers []string
	// onSuccess observes the conclusive reply and the backend that
	// served it before it is written out.
	onSuccess func(backend string, reply *client.Reply)
	// onRepair observes a conclusive success that was preceded by 404s:
	// missed lists the backends that answered 404 before reply was
	// served (the read-repair trigger).
	onRepair func(missed []string, reply *client.Reply)
}

// proxy drives one request through the failover loop and writes the
// answer. The preference order is the ring's order for key filtered by
// health, with an affinity hit prepended. Every backend attempt reuses
// the chain key (the client's Idempotency-Key, or a gateway-minted one)
// so the whole chain counts as one logical request everywhere.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, key string, op proxyOp) {
	start := time.Now()
	defer func() {
		g.proxyUS.Observe(uint64(time.Since(start).Microseconds()))
	}()

	chain := r.Header.Get("Idempotency-Key")
	if chain == "" {
		chain = g.mintKey()
	}

	order := g.prober.split(g.ring.order(key))
	if op.affinity != "" && g.prober.admitted(op.affinity) {
		reordered := make([]string, 0, len(order)+1)
		reordered = append(reordered, op.affinity)
		for _, b := range order {
			if b != op.affinity {
				reordered = append(reordered, b)
			}
		}
		order = reordered
	}
	if len(order) == 0 {
		g.noBackend.Add(1)
		gwError(w, http.StatusServiceUnavailable, "no_backend",
			"no admitted backend for this request; all backends are ejected or re-admitting")
		return
	}

	var lastNotFound *client.Reply
	var notFoundBackend string
	var notFoundBackends []string
	var lastErr error
	tried := 0
	for _, backend := range order {
		if r.Context().Err() != nil {
			// The client is gone. Nobody reads the bare 504, but it logs
			// and counts the request as abandoned instead of the default
			// 200, and the idempotency layer never keeps a 5xx.
			w.WriteHeader(http.StatusGatewayTimeout)
			return
		}
		if tried > 0 {
			g.failovers.Add(1)
		}
		tried++
		if op.runID != "" {
			g.runs.Put(op.runID, backend)
		}
		ctx := r.Context()
		if peers := peersExcluding(op.storePeers, backend); peers != "" {
			ctx = client.WithHeaders(ctx, http.Header{storePeersHeader: {peers}})
		}
		reply, err := g.clients[backend].Exchange(ctx, chain, op.runID, op.method, op.path, op.body)
		if err != nil {
			if r.Context().Err() != nil {
				// The client hung up mid-exchange: the error reflects our
				// own canceled context, not backend health — it must not
				// advance the ejection streak, and there is nobody left
				// to fail over for (the bare 504 as above).
				w.WriteHeader(http.StatusGatewayTimeout)
				return
			}
			g.noteProxyError(backend, err)
			lastErr = err
			continue
		}
		g.prober.noteProxySuccess(backend)
		if reply.Attempts > 1 {
			g.retries.Add(uint64(reply.Attempts - 1))
		}
		if op.retryNotFound && reply.Status == http.StatusNotFound {
			lastNotFound = reply
			notFoundBackend = backend
			notFoundBackends = append(notFoundBackends, backend)
			continue
		}
		if op.onSuccess != nil {
			op.onSuccess(backend, reply)
		}
		if op.onRepair != nil && reply.Status < 300 && len(notFoundBackends) > 0 {
			op.onRepair(notFoundBackends, reply)
		}
		g.writeReply(w, backend, tried, reply)
		return
	}
	if lastNotFound != nil {
		if lastErr == nil {
			// Every backend answered 404: the resource genuinely is not
			// in the fleet. Serve the answering backend's reply verbatim.
			g.writeReply(w, notFoundBackend, tried, lastNotFound)
			return
		}
		// Some backends answered 404 but at least one failed outright:
		// the resource may live on the unreachable backend, so the 404
		// is not conclusive (and, being retryable, a 503 is never pinned
		// by the idempotency layer). Ask the client to retry once the
		// fleet recovers.
		g.cfg.Logger.Error("gateway: inconclusive 404",
			"endpoint", op.endpoint, "tried", tried, "err", lastErr)
		gwError(w, http.StatusServiceUnavailable, "no_backend",
			fmt.Sprintf("not found on the reachable backends, but a backend failed (%v); retry", lastErr))
		return
	}
	g.cfg.Logger.Error("gateway: every backend failed",
		"endpoint", op.endpoint, "tried", tried, "err", lastErr)
	gwError(w, http.StatusServiceUnavailable, "no_backend",
		fmt.Sprintf("all %d backends failed; last error: %v", tried, lastErr))
}

// noteProxyError classifies one failed backend exchange for the health
// machine. Transport-level loss feeds ejection; an HTTP-level retry
// exhaustion (the backend kept answering 5xx/429) only counts — probes
// own that signal.
func (g *Gateway) noteProxyError(backend string, err error) {
	var apiErr *client.APIError
	g.prober.noteProxyFailure(backend, err, !errors.As(err, &apiErr))
}

// writeReply forwards one conclusive backend reply to the client,
// byte-identical body included. Roload-Gateway-Attempts carries the
// total backend count tried (1 = first backend served) so a load
// generator can account for gateway-side failover the end client never
// sees as an error.
func (g *Gateway) writeReply(w http.ResponseWriter, backend string, tried int, reply *client.Reply) {
	h := w.Header()
	for _, k := range []string{"Content-Type", "Location", "Retry-After", "Idempotency-Replayed", "Roload-Trace"} {
		if v := reply.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("Roload-Gateway-Backend", backend)
	h.Set("Roload-Gateway-Attempts", strconv.Itoa(tried-1+reply.Attempts))
	w.WriteHeader(reply.Status)
	w.Write(reply.Body) //nolint:errcheck // client gone: nothing to report to
}
