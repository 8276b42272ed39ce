// Package service is the multi-tenant execution service behind
// cmd/roload-serve: an HTTP JSON API that compiles, hardens, runs and
// attacks guest programs on the simulated ROLoad systems, and serves
// the evaluation experiments on demand.
//
// Every simulation runs under the request's context with a per-request
// deadline; a bounded worker pool caps concurrent simulations and a
// bounded queue sheds load (503) instead of building unbounded
// backlogs. Compiled images are shared across tenants through the
// eval.Runner image cache — concurrent identical requests compile
// once. Responses reuse the exact code paths of the CLI tools
// (core.CompileText, core.RunWith, attack.RenderMatrix,
// eval.Runner.Experiment), which is what makes service responses
// byte-identical to the equivalent roload-run / roload-cc /
// roload-attack invocations.
//
// Shutdown is graceful: draining flips /healthz to 503 and rejects new
// work while in-flight requests get a grace period to finish; when it
// expires the base context is cancelled and every remaining run stops
// at its next cancellation poll (kernel.Config.CancelEvery), answering
// 504 with a partial metrics snapshot. Cancellation never changes the
// simulated observables of runs that complete (DESIGN.md §3).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roload/internal/eval"
	"roload/internal/httpapi"
	"roload/internal/retain"
	"roload/internal/schema"
	"roload/internal/store"
	"roload/internal/telemetry"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a default chosen for a small multi-tenant deployment.
type Config struct {
	// Workers caps concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Queue caps requests waiting for a worker beyond Workers; when the
	// queue is full new work is answered 503 busy (0 = 4*Workers).
	Queue int
	// MaxBodyBytes caps request bodies; larger bodies get 413
	// (0 = 1 MiB).
	MaxBodyBytes int64
	// MaxSteps is both the per-run default and the cap on the
	// request-supplied instruction budget (0 = 2e9, the bench budget).
	MaxSteps uint64
	// MaxMemBytes caps the request-supplied guest memory size
	// (0 = 256 MiB, the kernel default).
	MaxMemBytes uint64
	// DefaultTimeout bounds runs that do not ask for a deadline
	// (0 = 30s); MaxTimeout caps request-supplied deadlines (0 = 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Grace is how long draining waits for in-flight runs before
	// cancelling them (0 = 5s).
	Grace time.Duration
	// Chaos enables the fault-injection surface: the /v1/chaos arming
	// endpoint and RunRequest.FaultCount. Off by default — chaos is a
	// testing facility, not a tenant-facing feature.
	Chaos bool
	// DegradedWindow is how long /healthz reports "degraded" (503 with
	// Retry-After) after a recovered worker panic (0 = 15s).
	DegradedWindow time.Duration
	// Root is the repository root, read by the table1 experiment
	// (0 = ".").
	Root string
	// StoreDir enables the persistent artifact store: compiled images,
	// checkpoints, heal and batch reports survive restarts in this
	// directory, and the store-backed surface (POST /v1/images,
	// RunRequest.ImageDigest/CheckpointEvery/Resume) is routed. Empty =
	// no store.
	StoreDir string
	// MaxBatchRuns caps BatchRequest.Runs (0 = 64).
	MaxBatchRuns int
	// StoreGCInterval > 0 runs the store GC policy daemon on that
	// period: age/size-based unpinning (StoreMaxAge, StoreMaxBytes)
	// followed by a compaction. Requires StoreDir.
	StoreGCInterval time.Duration
	// StoreMaxAge unpins digests whose latest pin is older (0 = no age
	// policy); StoreMaxBytes unpins oldest-first until the compacted
	// log fits (0 = no size policy).
	StoreMaxAge   time.Duration
	StoreMaxBytes int64
	// PeerTimeout bounds one artifact push or fetch against a fleet
	// peer (0 = 2s).
	PeerTimeout time.Duration
	// Logger receives one structured record per request (nil = slog
	// default logger).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 2_000_000_000
	}
	if c.MaxMemBytes == 0 {
		c.MaxMemBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.Grace <= 0 {
		c.Grace = 5 * time.Second
	}
	if c.DegradedWindow <= 0 {
		c.DegradedWindow = 15 * time.Second
	}
	if c.Root == "" {
		c.Root = "."
	}
	if c.MaxBatchRuns <= 0 {
		c.MaxBatchRuns = 64
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server implements the roload-serve/v1 API. Create with NewServer and
// mount Handler on an http.Server.
type Server struct {
	cfg    Config
	runner *eval.Runner

	// baseCtx is cancelled when the drain grace period expires; every
	// run's context derives its cancellation from it as well as from
	// the request.
	baseCtx    context.Context
	cancelRuns context.CancelFunc

	// slots is the worker pool (one token per concurrent simulation);
	// queue bounds how many requests may wait for a token.
	slots chan struct{}
	queue chan struct{}

	draining  atomic.Bool
	drainOnce sync.Once
	inFlight  atomic.Int64
	queued    atomic.Int64

	// api is the request middleware; /healthz reports degraded until
	// DegradedWindow has passed since its last recovered panic.
	api   *httpapi.Endpoints
	chaos chaosState

	mu sync.Mutex
	// keyChecks tracks per-hardening-mode run/violation counts (guarded
	// by mu; see noteKeyCheck). engineRuns counts executed run requests
	// per execution engine (also guarded by mu).
	keyChecks  map[string]*keyCheckCounters
	engineRuns map[string]uint64

	// experiments is the memo of computed experiments, one computation
	// per (id, scale) shared across tenants; a computation cancelled
	// mid-run is not kept.
	experiments *retain.Memo[expKey, experiment]

	// idem is the idempotency-key layer of the keyed POST routes;
	// shed counts low-priority requests answered 429 under load.
	idem *retain.Idempotency
	shed atomic.Uint64

	// start stamps process start for the /metrics uptime gauge.
	start time.Time

	// broker fans live run events out to GET /v1/runs/{id}/events
	// subscribers; traces retains completed runs' span documents for
	// GET /v1/runs/{id}/trace. Both close/bound with the server.
	broker *telemetry.Broker
	traces *retain.FIFO[string, schema.TraceDoc]

	// results retains the rendered response of recently completed runs
	// for GET /v1/runs/{id}; store is the persistent artifact store
	// (nil without Config.StoreDir).
	results *retain.FIFO[string, storedResult]
	store   *store.Store

	// peerHTTP carries artifact pushes and fetches between fleet
	// peers; the repl* counters are the store-replication accounting
	// surfaced under /metrics.
	peerHTTP      *http.Client
	replPushes    atomic.Uint64
	replPushFail  atomic.Uint64
	replFetches   atomic.Uint64
	replFetchHits atomic.Uint64

	// gcWG tracks the store GC policy daemon so Close can wait for it.
	gcWG sync.WaitGroup

	// queueWaitUS and runDurationUS are the run endpoint's latency
	// distributions (microseconds); per-endpoint histograms live in
	// api.
	queueWaitUS   telemetry.Histogram
	runDurationUS telemetry.Histogram
}

type expKey struct {
	id    string
	scale eval.Scale
}

// experiment is one experiment computation's outcome.
type experiment struct {
	data any
	err  error
}

// retainedRuns is how many completed runs' traces and rendered results
// the server keeps for GET /v1/runs/{id}(/trace).
const retainedRuns = 256

// NewServer builds a Server with cfg's defaults applied. With
// Config.StoreDir set it opens (recovering, if the last process died
// mid-append) the persistent artifact store; an unopenable store is
// the only construction failure.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir); err != nil {
			return nil, fmt.Errorf("opening artifact store: %w", err)
		}
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		runner:      eval.NewRunner(cfg.Workers),
		baseCtx:     base,
		cancelRuns:  cancel,
		slots:       make(chan struct{}, cfg.Workers),
		queue:       make(chan struct{}, cfg.Workers+cfg.Queue),
		api:         httpapi.NewEndpoints(cfg.Logger),
		idem:        retain.NewIdempotency(),
		experiments: retain.NewMemo[expKey, experiment](),
		start:       time.Now(),
		broker:      telemetry.NewBroker(0, 0),
		traces:      retain.NewFIFO[string, schema.TraceDoc](retainedRuns),
		results:     retain.NewFIFO[string, storedResult](retainedRuns),
		store:       st,
		peerHTTP:    &http.Client{Timeout: cfg.PeerTimeout},
	}
	// When the drain grace expires (or Close fires) the broker shuts
	// down, ending every event stream — otherwise http.Server.Shutdown
	// would deadlock waiting on SSE handlers that are waiting on events.
	context.AfterFunc(base, s.broker.Close)
	if st != nil && cfg.StoreGCInterval > 0 {
		s.gcWG.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// gcLoop is the store GC policy daemon: every StoreGCInterval it
// applies the age/size unpinning policy and compacts the log. It stops
// when the base context is cancelled (drain grace expiry or Close).
func (s *Server) gcLoop() {
	defer s.gcWG.Done()
	t := time.NewTicker(s.cfg.StoreGCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			unpinned, removed, err := s.store.EnforcePolicy(s.cfg.StoreMaxAge, s.cfg.StoreMaxBytes)
			if err != nil {
				s.cfg.Logger.LogAttrs(s.baseCtx, slog.LevelWarn, "store gc",
					slog.String("err", err.Error()))
				continue
			}
			if unpinned > 0 || removed > 0 {
				s.cfg.Logger.LogAttrs(s.baseCtx, slog.LevelInfo, "store gc",
					slog.Int("unpinned", unpinned), slog.Int("removed", removed))
			}
		}
	}
}

// Handler returns the service's routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.api.Wrap("run", s.idem.Wrap(s.handleRun)))
	mux.HandleFunc("POST /v1/runs", s.api.Wrap("runs", s.idem.Wrap(s.handleRunCreate)))
	mux.HandleFunc("GET /v1/runs/{id}", s.api.Wrap("run-result", s.handleRunGet))
	mux.HandleFunc("POST /v1/batch", s.api.Wrap("batch", s.idem.Wrap(s.handleBatch)))
	mux.HandleFunc("POST /v1/compile", s.api.Wrap("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/attack", s.api.Wrap("attack", s.handleAttack))
	mux.HandleFunc("GET /v1/experiments", s.api.Wrap("experiments", s.handleExperimentList))
	mux.HandleFunc("POST /v1/experiments/{id}", s.api.Wrap("experiment", s.handleExperiment))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.api.Wrap("events", s.handleEvents))
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.api.Wrap("trace", s.handleTrace))
	mux.HandleFunc("GET /healthz", s.api.Wrap("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.api.Wrap("metrics", s.handleMetrics))
	if s.cfg.Chaos {
		mux.HandleFunc("POST /v1/chaos", s.api.Wrap("chaos", s.handleChaosSet))
		mux.HandleFunc("GET /v1/chaos", s.api.Wrap("chaos", s.handleChaosGet))
	}
	if s.store != nil {
		mux.HandleFunc("POST /v1/images", s.api.Wrap("images", s.handleImagePut))
		mux.HandleFunc("GET /v1/images/{digest}", s.api.Wrap("image", imageKind(s.handleStoreGet)))
		mux.HandleFunc("GET /v1/store/{kind}/{digest}", s.api.Wrap("store-get", s.handleStoreGet))
		mux.HandleFunc("PUT /v1/store/{kind}/{digest}", s.api.Wrap("store-put", s.handleStorePut))
	}
	return mux
}

// StartDrain begins graceful shutdown: new work is rejected
// immediately (503 draining, /healthz flips to 503) and after the
// grace period every in-flight run is cancelled, answering 504 with a
// partial snapshot. Safe to call more than once.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		// Letting the timer fire is harmless: cancelRuns on an idle or
		// already-closed server is a no-op.
		time.AfterFunc(s.cfg.Grace, s.cancelRuns)
	})
}

// Close cancels every in-flight run immediately. Intended for the
// final phase of shutdown (after Drain + http.Server.Shutdown) and for
// tests.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancelRuns()
	s.gcWG.Wait()
	if s.store != nil {
		s.store.Close() //nolint:errcheck // shutdown path: nowhere to report
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// acquire takes a worker slot, queueing up to the configured bound.
// It returns an apiError for shed load (busy, draining) or a context
// error when the caller's deadline expires while queued.
func (s *Server) acquire(ctx context.Context) *apiError {
	if s.draining.Load() {
		return errDraining()
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return errBusy()
	}
	defer func() { <-s.queue }()
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return timeoutError(ctx.Err(), nil)
	case <-s.baseCtx.Done():
		return errDraining()
	}
	if s.draining.Load() {
		<-s.slots
		return errDraining()
	}
	s.inFlight.Add(1)
	return nil
}

func (s *Server) release() {
	s.inFlight.Add(-1)
	<-s.slots
}

// runCtx derives the execution context for one request: the request's
// context bounded by the effective timeout, with cancellation also
// propagated from the server's base context so the drain deadline
// stops runs whose clients are still waiting.
func (s *Server) runCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// apiError pairs an HTTP status with the roload-serve/v1 error
// payload.
type apiError struct {
	status int
	body   schema.ErrorResponse
}

func (e *apiError) write(w http.ResponseWriter) {
	httpapi.WriteError(w, e.status, e.body)
}

func validationError(msg string) *apiError {
	return &apiError{http.StatusBadRequest, schema.ErrorResponse{Error: msg, Kind: "validation"}}
}

func compileError(err error) *apiError {
	return &apiError{http.StatusBadRequest, schema.ErrorResponse{Error: err.Error(), Kind: "compile"}}
}

func notFoundError(msg string) *apiError {
	return &apiError{http.StatusNotFound, schema.ErrorResponse{Error: msg, Kind: "not_found"}}
}

func errBusy() *apiError {
	return &apiError{http.StatusServiceUnavailable, schema.ErrorResponse{
		Error: "worker queue full, retry later", Kind: "busy"}}
}

func errDraining() *apiError {
	return &apiError{http.StatusServiceUnavailable, schema.ErrorResponse{
		Error: "server is draining", Kind: "draining"}}
}

// errOverload is the 429 answered to a low-priority request shed by
// admission control before it enters the queue.
func errOverload(retrySec int) *apiError {
	return &apiError{http.StatusTooManyRequests, schema.ErrorResponse{
		Error: "low-priority request shed under load, retry later",
		Kind:  "overload", RetryAfterSec: retrySec}}
}

// shedLowPriority implements priority-aware admission control: once
// the wait queue passes half its capacity, low-priority requests are
// shed with 429 + Retry-After so interactive traffic keeps the
// remaining headroom. Default-priority requests are never shed here —
// they keep the legacy 503-busy behaviour at a full queue.
func (s *Server) shedLowPriority() *apiError {
	threshold := s.cfg.Queue / 2
	if threshold < 1 {
		threshold = 1
	}
	if int(s.queued.Load()) >= threshold {
		s.shed.Add(1)
		return errOverload(2)
	}
	return nil
}

// timeoutError is a 504 carrying the partial snapshot of the cancelled
// run (nil when cancellation struck before any simulation started).
func timeoutError(err error, partial *schema.Snapshot) *apiError {
	return &apiError{http.StatusGatewayTimeout, schema.ErrorResponse{
		Error: err.Error(), Kind: "timeout", Metrics: partial}}
}

func internalError(err error) *apiError {
	return &apiError{http.StatusInternalServerError, schema.ErrorResponse{
		Error: err.Error(), Kind: "internal"}}
}

// decodeBody reads and decodes one JSON request body under the size
// cap, distinguishing oversized bodies (413) from malformed ones
// (400). Unknown fields are rejected so schema drift fails loudly.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, out any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{http.StatusRequestEntityTooLarge, schema.ErrorResponse{
				Error: err.Error(), Kind: "validation"}}
		}
		return validationError("decoding request body: " + err.Error())
	}
	return nil
}

// checkSchema validates the optional request-side schema tag.
func checkSchema(tag string) *apiError {
	if tag != "" && tag != schema.ServeV1 {
		return validationError("request schema " + tag + " is not " + schema.ServeV1)
	}
	return nil
}
