package gateway

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roload/internal/client"
	"roload/internal/retain"
	"roload/internal/schema"
	"roload/internal/telemetry"
)

// Gateway is the health-aware sharding front tier. Create with New,
// mount Handler on an http.Server, StartDrain then Close on shutdown.
type Gateway struct {
	cfg    Config
	ring   *ring
	prober *prober
	// clients maps backend URL to its resilient client (backoff,
	// hedging, idempotency keys). The client never refuses locally, so
	// every failed exchange reaches the prober, the one failure
	// detector per backend.
	clients map[string]*client.Client
	// sseClient is the plain transport leg for event-stream relays
	// (no per-request timeout: streams outlive any attempt budget).
	sseClient *http.Client

	idem *retain.Idempotency
	// runs maps run id → owning backend; digests maps image digest →
	// the backend that stored it. Both are affinity hints, bounded FIFO:
	// eviction only loses affinity, never correctness — an evicted entry
	// degrades to ring-order search.
	runs    *retain.FIFO[string, string]
	digests *retain.FIFO[string, string]
	mirror  *mirror

	baseCtx   context.Context
	cancel    context.CancelFunc
	probeDone chan struct{}
	draining  atomic.Bool
	start     time.Time

	keyPrefix string
	keySeq    atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]*endpointCounters

	retries   atomic.Uint64
	failovers atomic.Uint64
	noBackend atomic.Uint64
	proxyUS   telemetry.Histogram

	// The replication machinery (replicator.go): a bounded job queue,
	// one worker, a plain transport leg for artifact pushes, and the
	// lag/repair counters behind /metrics replication.
	replCh          chan replJob
	replDone        chan struct{}
	replHTTP        *http.Client
	replEnqueued    atomic.Uint64
	replReplicated  atomic.Uint64
	replFailed      atomic.Uint64
	replDropped     atomic.Uint64
	replReadRepairs atomic.Uint64
}

// affinityCap bounds each of the run→backend and digest→backend maps.
const affinityCap = 4096

type endpointCounters struct {
	requests, ok, errors4x, errors5x, timeouts atomic.Uint64
}

// New builds a Gateway over cfg's backend fleet and starts the probe
// loop. Close stops it.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	var prefix [8]byte
	rand.Read(prefix[:]) //nolint:errcheck // crypto/rand.Read cannot fail
	g := &Gateway{
		cfg:     cfg,
		ring:    newRing(cfg.Backends, cfg.VNodes),
		clients: make(map[string]*client.Client, len(cfg.Backends)),
		sseClient: &http.Client{
			Transport: cfg.Transport,
		},
		idem:      retain.NewIdempotency(),
		runs:      retain.NewFIFO[string, string](affinityCap),
		digests:   retain.NewFIFO[string, string](affinityCap),
		baseCtx:   base,
		cancel:    cancel,
		probeDone: make(chan struct{}),
		start:     time.Now(),
		keyPrefix: "gw-" + hex.EncodeToString(prefix[:]),
		endpoints: make(map[string]*endpointCounters),
		replCh:    make(chan replJob, 256),
		replDone:  make(chan struct{}),
		replHTTP:  &http.Client{Transport: cfg.Transport},
	}
	for _, b := range cfg.Backends {
		g.clients[b] = client.New(client.Config{
			BaseURL:        b,
			HTTPClient:     &http.Client{Transport: cfg.Transport},
			MaxAttempts:    cfg.AttemptsPerBackend,
			AttemptTimeout: time.Duration(cfg.AttemptTimeoutMS) * time.Millisecond,
		})
	}
	probeTargets := append([]string(nil), cfg.Backends...)
	if cfg.Canary != "" {
		probeTargets = append(probeTargets, cfg.Canary)
	}
	g.prober = newProber(cfg, cfg.Transport, probeTargets, func(b, from, to string) {
		cfg.Logger.Info("gateway: backend state change", "backend", b, "from", from, "to", to)
	})
	g.mirror = newMirror(cfg, cfg.Transport, base)
	go func() {
		defer close(g.probeDone)
		g.prober.run(base)
	}()
	go g.replicateLoop()
	return g, nil
}

// Handler returns the gateway's routed HTTP handler: the proxied /v1
// surface plus the gateway's own /healthz and /metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", g.logged("run", g.idem.Wrap(g.handleRun("/v1/run"))))
	mux.HandleFunc("POST /v1/runs", g.logged("runs", g.idem.Wrap(g.handleRun("/v1/runs"))))
	mux.HandleFunc("GET /v1/runs/{id}", g.logged("run-result", g.handleRunGet))
	mux.HandleFunc("POST /v1/batch", g.logged("batch", g.idem.Wrap(g.handleBatch)))
	mux.HandleFunc("POST /v1/images", g.logged("images", g.idem.Wrap(g.handleImagePut)))
	mux.HandleFunc("GET /v1/images/{digest}", g.logged("image", imageKind(g.handleStoreGet)))
	mux.HandleFunc("GET /v1/store/{kind}/{digest}", g.logged("store-get", g.handleStoreGet))
	mux.HandleFunc("PUT /v1/store/{kind}/{digest}", g.logged("store-put", g.handleStorePut))
	mux.HandleFunc("GET /v1/runs/{id}/events", g.logged("events", g.handleEvents))
	mux.HandleFunc("GET /v1/runs/{id}/trace", g.logged("trace", g.handleTrace))
	mux.HandleFunc("GET /healthz", g.logged("healthz", g.handleHealthz))
	mux.HandleFunc("GET /metrics", g.logged("metrics", g.handleMetrics))
	return mux
}

// StartDrain flips the gateway into drain: /healthz answers 503 so
// upstream balancers stop sending, and new proxied work is rejected
// with 503 draining while in-flight requests finish. Safe to call more
// than once.
func (g *Gateway) StartDrain() { g.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Close stops the probe loop, ends every relayed event stream, and
// waits for in-flight canary replays.
func (g *Gateway) Close() {
	g.draining.Store(true)
	g.cancel()
	<-g.probeDone
	<-g.replDone
	g.mirror.drain()
}

// mintKey mints a chain idempotency key for a request that arrived
// without one, scoping dedup to the failover chain.
func (g *Gateway) mintKey() string {
	return fmt.Sprintf("%s-%d", g.keyPrefix, g.keySeq.Add(1))
}

// runIDFor adopts the client's run id (subscribe-before-post) or
// mints one.
func runIDFor(r *http.Request) string {
	if id := r.Header.Get("Roload-Trace"); telemetry.ValidRunID(id) {
		return id
	}
	return telemetry.NewRunID()
}

// readBody slurps the request body under the configured cap.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		gwError(w, http.StatusRequestEntityTooLarge, "validation", err.Error())
		return nil, false
	}
	return body, true
}

// rejectDraining sheds new work during drain.
func (g *Gateway) rejectDraining(w http.ResponseWriter) bool {
	if !g.draining.Load() {
		return false
	}
	gwError(w, http.StatusServiceUnavailable, "draining", "gateway is draining")
	return true
}

// handleRun proxies POST /v1/run and POST /v1/runs: route by the
// compile group (or image digest), record the run→backend mapping for
// the event stream, and mirror successful answers.
func (g *Gateway) handleRun(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.rejectDraining(w) {
			return
		}
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		// Decode a shadow copy for the shard key only; the original
		// bytes are what gets forwarded, byte for byte.
		var req schema.RunRequest
		if err := json.Unmarshal(body, &req); err != nil {
			gwError(w, http.StatusBadRequest, "validation", "decoding request body: "+err.Error())
			return
		}
		key := shardKey(req.ImageDigest, req.Source, req.Asm, req.Harden, req.Optimize)
		affinity := ""
		if req.ImageDigest != "" {
			affinity, _ = g.digests.Get(req.ImageDigest)
		}
		g.proxy(w, r, key, proxyOp{
			endpoint: "run",
			method:   http.MethodPost,
			path:     path,
			body:     body,
			runID:    runIDFor(r),
			affinity: affinity,
			// The run's artifacts (checkpoints, heal reports) replicate
			// to the shard key's ring successors, named per attempt in
			// Roload-Store-Peers — so a later resume through this
			// gateway finds a copy even after the serving backend dies.
			storePeers: g.replicaTargets(key),
			// A digest-routed run may land on a backend whose store never
			// saw the image; the owning backend is elsewhere on the ring.
			retryNotFound: req.ImageDigest != "",
			onSuccess: func(_ string, reply *client.Reply) {
				if reply.Status < 300 {
					g.mirror.offer(mirrorJob{endpoint: "run", method: http.MethodPost,
						path: path, body: body, status: reply.Status, served: reply.Body})
				}
			},
		})
	}
}

// handleBatch proxies POST /v1/batch, routed like a run by the batch's
// shared compile group.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if g.rejectDraining(w) {
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req schema.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		gwError(w, http.StatusBadRequest, "validation", "decoding request body: "+err.Error())
		return
	}
	key := shardKey(req.ImageDigest, req.Source, req.Asm, req.Harden, req.Optimize)
	affinity := ""
	if req.ImageDigest != "" {
		affinity, _ = g.digests.Get(req.ImageDigest)
	}
	g.proxy(w, r, key, proxyOp{
		endpoint:      "batch",
		method:        http.MethodPost,
		path:          "/v1/batch",
		body:          body,
		runID:         runIDFor(r),
		affinity:      affinity,
		retryNotFound: req.ImageDigest != "",
		storePeers:    g.replicaTargets(key),
		// Batch reports embed the minted batch id and the backend's
		// compile counter, so their bytes are not comparable across
		// deployments: the mirror diffs run traffic only.
	})
}

// handleImagePut proxies POST /v1/images and records which backend
// stored the digest, so later run-by-digest requests follow the image.
func (g *Gateway) handleImagePut(w http.ResponseWriter, r *http.Request) {
	if g.rejectDraining(w) {
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req schema.ImageRequest
	if err := json.Unmarshal(body, &req); err != nil {
		gwError(w, http.StatusBadRequest, "validation", "decoding request body: "+err.Error())
		return
	}
	key := shardKey("", req.Source, req.Asm, req.Harden, req.Optimize)
	g.proxy(w, r, key, proxyOp{
		endpoint:   "images",
		method:     http.MethodPost,
		path:       "/v1/images",
		body:       body,
		storePeers: g.replicaTargets(key),
		onSuccess: func(backend string, reply *client.Reply) {
			if reply.Status >= 300 {
				return
			}
			var env schema.Envelope
			var img schema.ImageResponse
			if json.Unmarshal(reply.Body, &env) == nil && env.Open(schema.ServeV1, &img) == nil && img.Digest != "" {
				g.digests.Put(img.Digest, backend)
			}
		},
	})
}

// handleStoreGet proxies GET /v1/store/{kind}/{digest}: digest-routed
// with 404 fall-through. When the artifact is found only after one or
// more backends answered 404, the replica-set members that missed are
// read-repaired from the reply — the anti-entropy half of the
// replication contract. It also serves GET /v1/images/{digest}, through
// imageKind.
func (g *Gateway) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	kind, digest := r.PathValue("kind"), r.PathValue("digest")
	affinity, _ := g.digests.Get(digest)
	g.proxy(w, r, digest, proxyOp{
		endpoint:      "store-get",
		method:        http.MethodGet,
		path:          "/v1/store/" + kind + "/" + digest,
		affinity:      affinity,
		retryNotFound: true,
		onRepair: func(missed []string, reply *client.Reply) {
			var targets []string
			for _, t := range g.replicaTargets(digest) {
				for _, m := range missed {
					if t == m {
						targets = append(targets, t)
						break
					}
				}
			}
			g.enqueueReplication(replJob{kindName: kind, digest: digest,
				body: reply.Body, targets: targets, repair: true})
		},
	})
}

// imageKind fixes a store route's {kind} to roload-image: the
// GET /v1/images/{digest} alias is the store GET of that kind.
func imageKind(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.SetPathValue("kind", schema.KindName(schema.ImageV1))
		h(w, r)
	}
}

// handleStorePut proxies PUT /v1/store/{kind}/{digest} to the digest's
// ring owner (the backend re-verifies the body against the digest
// before storing) and write-through-replicates the bytes to the
// owner's R−1 admitted successors.
func (g *Gateway) handleStorePut(w http.ResponseWriter, r *http.Request) {
	if g.rejectDraining(w) {
		return
	}
	kind, digest := r.PathValue("kind"), r.PathValue("digest")
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	g.proxy(w, r, digest, proxyOp{
		endpoint: "store-put",
		method:   http.MethodPut,
		path:     "/v1/store/" + kind + "/" + digest,
		body:     body,
		onSuccess: func(backend string, reply *client.Reply) {
			if reply.Status >= 300 {
				return
			}
			g.digests.Put(digest, backend)
			var rest []string
			for _, t := range g.replicaTargets(digest) {
				if t != backend {
					rest = append(rest, t)
				}
			}
			g.enqueueReplication(replJob{kindName: kind, digest: digest,
				body: body, targets: rest})
		},
	})
}

// handleRunGet proxies GET /v1/runs/{id}: the run's owner first, then
// ring order with 404 fall-through (the run may have re-homed).
func (g *Gateway) handleRunGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	affinity, _ := g.runs.Get(id)
	g.proxy(w, r, id, proxyOp{
		endpoint:      "run-result",
		method:        http.MethodGet,
		path:          "/v1/runs/" + id,
		affinity:      affinity,
		retryNotFound: true,
	})
}

// handleTrace proxies GET /v1/runs/{id}/trace like handleRunGet.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	affinity, _ := g.runs.Get(id)
	g.proxy(w, r, id, proxyOp{
		endpoint:      "trace",
		method:        http.MethodGet,
		path:          "/v1/runs/" + id + "/trace",
		affinity:      affinity,
		retryNotFound: true,
	})
}

// handleHealthz answers the gateway's own liveness: 200 while at least
// one backend is admitted and the gateway is not draining.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := make(map[string]string, len(g.cfg.Backends))
	admitted, healthy := 0, 0
	for _, b := range g.cfg.Backends {
		s := g.prober.stateOf(b)
		states[b] = s
		if s == stateHealthy || s == stateDegraded {
			admitted++
		}
		if s == stateHealthy {
			healthy++
		}
	}
	resp := schema.GatewayHealth{
		Backends: states,
		Admitted: admitted,
	}
	if g.cfg.Canary != "" {
		resp.Canary = g.prober.stateOf(g.cfg.Canary)
	}
	status := http.StatusOK
	switch {
	case g.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case admitted == 0:
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	case healthy < len(g.cfg.Backends):
		resp.Status = "degraded"
	default:
		resp.Status = "ok"
	}
	writeGatewayEnvelope(w, status, resp)
}

// handleMetrics renders the gateway's counters.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := schema.GatewayMetrics{
		Backends:    g.prober.snapshot(),
		Endpoints:   g.endpointSnapshot(),
		Retries:     g.retries.Load(),
		Failovers:   g.failovers.Load(),
		NoBackend:   g.noBackend.Load(),
		Idempotency: g.idem.Metrics(),
		Mirror:      g.mirror.snapshot(),
		Replication: schema.GatewayReplication{
			Replicas:    g.cfg.Replicas,
			Enqueued:    g.replEnqueued.Load(),
			Replicated:  g.replReplicated.Load(),
			Failed:      g.replFailed.Load(),
			Dropped:     g.replDropped.Load(),
			ReadRepairs: g.replReadRepairs.Load(),
			QueueDepth:  len(g.replCh),
		},
		ProxyLatencyUS: g.proxyUS.Snapshot(),
		UptimeSec:      time.Since(g.start).Seconds(),
		Draining:       g.draining.Load(),
	}
	writeGatewayEnvelope(w, http.StatusOK, resp)
}

// counters returns the per-endpoint counter block, creating it on
// first use.
func (g *Gateway) counters(name string) *endpointCounters {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.endpoints[name]
	if c == nil {
		c = &endpointCounters{}
		g.endpoints[name] = c
	}
	return c
}

func (g *Gateway) endpointSnapshot() map[string]schema.EndpointMetrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]schema.EndpointMetrics, len(g.endpoints))
	for name, c := range g.endpoints {
		out[name] = schema.EndpointMetrics{
			Requests: c.requests.Load(),
			OK:       c.ok.Load(),
			Errors4x: c.errors4x.Load(),
			Errors5x: c.errors5x.Load(),
			Timeouts: c.timeouts.Load(),
		}
	}
	return out
}

// statusWriter captures the response status for counters and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards so SSE relays stream through the middleware.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// logged wraps a handler with counters and one structured log line per
// request.
func (g *Gateway) logged(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		c := g.counters(name)
		c.requests.Add(1)
		switch {
		case sw.status < 400:
			c.ok.Add(1)
		case sw.status < 500:
			c.errors4x.Add(1)
		default:
			c.errors5x.Add(1)
			if sw.status == http.StatusGatewayTimeout {
				c.timeouts.Add(1)
			}
		}
		g.cfg.Logger.Info("gateway request",
			"endpoint", name,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur", elapsed,
		)
	}
}

// writeGatewayEnvelope writes a roload-serve/v1 envelope — the gateway
// speaks the same wire dialect as the backends it fronts.
func writeGatewayEnvelope(w http.ResponseWriter, status int, payload any) {
	env, err := schema.Wrap(schema.ServeV1, payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(env) //nolint:errcheck // client gone: nothing to report to
}

// gwError writes a structured error in the serve error shape, with
// Retry-After mirrored for the retryable statuses.
func gwError(w http.ResponseWriter, status int, kind, msg string) {
	body := schema.ErrorResponse{Error: msg, Kind: kind}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		body.RetryAfterSec = 1
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSec))
	}
	writeGatewayEnvelope(w, status, body)
}
