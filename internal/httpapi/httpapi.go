// Package httpapi is the roload-serve/v1 request plumbing shared by
// the service (cmd/roload-serve) and the gateway (cmd/roload-gateway):
// one middleware that recovers panics, counts and times every request
// per endpoint and writes its log line, one envelope writer, and the
// run-id adoption both tiers speak. The two tiers answer the same wire
// dialect, so they answer it through the same code.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roload/internal/schema"
	"roload/internal/telemetry"
)

// Endpoints is one tier's request middleware and the per-endpoint
// counters it keeps. Create with NewEndpoints and wrap every route
// with Wrap.
type Endpoints struct {
	logger *slog.Logger
	reqSeq atomic.Uint64
	// lastPanic is the UnixNano stamp of the most recent recovered
	// handler panic (0 = none).
	lastPanic atomic.Int64

	mu     sync.Mutex
	byName map[string]*endpointCounters
}

type endpointCounters struct {
	requests, ok, errors4x, errors5x, timeouts atomic.Uint64
	latencyUS                                  telemetry.Histogram
}

// NewEndpoints returns a middleware that logs to logger.
func NewEndpoints(logger *slog.Logger) *Endpoints {
	return &Endpoints{logger: logger, byName: make(map[string]*endpointCounters)}
}

// counters returns the named endpoint's counter block, creating it on
// first use.
func (e *Endpoints) counters(name string) *endpointCounters {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.byName[name]
	if c == nil {
		c = &endpointCounters{}
		e.byName[name] = c
	}
	return c
}

// LastPanic is when Wrap last recovered a handler panic (the zero
// time if it never has).
func (e *Endpoints) LastPanic() time.Time {
	if last := e.lastPanic.Load(); last != 0 {
		return time.Unix(0, last)
	}
	return time.Time{}
}

// Snapshot renders the counters for /metrics: outcome counts per
// endpoint, and the latency histogram (microseconds) of every endpoint
// that has answered (nil when none has).
func (e *Endpoints) Snapshot() (map[string]schema.EndpointMetrics, map[string]schema.Histogram) {
	e.mu.Lock()
	defer e.mu.Unlock()
	counts := make(map[string]schema.EndpointMetrics, len(e.byName))
	var latency map[string]schema.Histogram
	for name, c := range e.byName {
		counts[name] = schema.EndpointMetrics{
			Requests: c.requests.Load(),
			OK:       c.ok.Load(),
			Errors4x: c.errors4x.Load(),
			Errors5x: c.errors5x.Load(),
			Timeouts: c.timeouts.Load(),
		}
		if c.latencyUS.Count() > 0 {
			if latency == nil {
				latency = make(map[string]schema.Histogram)
			}
			latency[name] = c.latencyUS.Snapshot()
		}
	}
	return counts, latency
}

// statusWriter captures the response status for logging and counters,
// and whether anything was written yet (so the panic-recovery path
// knows it may still answer with a structured 500).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so event streams work
// through the middleware.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Wrap adds the middleware around h, counted under name: a panicking
// handler answers a structured 500 of kind "panic" (when the response
// has not started) and stamps LastPanic, and every request, panicking
// or not, is counted, timed, and logged in one "request" line carrying
// the run id the handler named with SetRunID.
func (e *Endpoints) Wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		id := e.reqSeq.Add(1)
		start := time.Now()
		// The slot lets the handler name its run after validation, so
		// the request line — and a panic report — carries the run id
		// even though the middleware ran first.
		slot := new(atomic.Pointer[string])
		r = r.WithContext(context.WithValue(r.Context(), runIDKey{}, slot))
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				e.lastPanic.Store(time.Now().UnixNano())
				e.logger.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
					slog.Uint64("req_id", id),
					slog.String("endpoint", name),
					slog.String("run_id", loadRunID(slot)),
					slog.String("panic", fmt.Sprint(rec)),
					slog.String("stack", string(debug.Stack())),
				)
				if !sw.wrote {
					WriteError(sw, http.StatusInternalServerError, schema.ErrorResponse{
						Error: fmt.Sprintf("handler panic: %v", rec), Kind: "panic",
						RunID: loadRunID(slot),
					})
				}
			}()
			h(sw, r)
		}()
		elapsed := time.Since(start)
		c := e.counters(name)
		c.requests.Add(1)
		c.latencyUS.Observe(uint64(elapsed.Microseconds()))
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
		e.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Uint64("req_id", id),
			slog.String("endpoint", name),
			slog.String("run_id", loadRunID(slot)),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("remote", r.RemoteAddr),
			slog.Int("status", sw.status),
			slog.Duration("dur", elapsed),
		)
	}
}

// runIDKey carries the per-request run-id slot Wrap installs.
type runIDKey struct{}

func loadRunID(slot *atomic.Pointer[string]) string {
	if id := slot.Load(); id != nil {
		return *id
	}
	return ""
}

// SetRunID names the run the request under ctx serves, for its log
// line and panic report. Outside Wrap it does nothing.
func SetRunID(ctx context.Context, id string) {
	if slot, ok := ctx.Value(runIDKey{}).(*atomic.Pointer[string]); ok {
		slot.Store(&id)
	}
}

// AdoptRunID returns the run id of r and names it with SetRunID: the
// client's, when its Roload-Trace header carries a valid one (that is
// how a client subscribes to a run's events before posting it), else a
// freshly minted one.
func AdoptRunID(r *http.Request) string {
	id := r.Header.Get("Roload-Trace")
	if !telemetry.ValidRunID(id) {
		id = telemetry.NewRunID()
	}
	SetRunID(r.Context(), id)
	return id
}

// Render marshals a roload-serve/v1 envelope around payload, exactly
// the bytes WriteEnvelope sends, so one rendering can be both answered
// and retained or streamed.
func Render(payload any) ([]byte, error) {
	env, err := schema.Wrap(schema.ServeV1, payload)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteRendered answers a pre-rendered envelope body.
func WriteRendered(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone: nothing to report to
}

// WriteEnvelope answers a roload-serve/v1 envelope around payload and
// returns the rendered body. A payload that cannot be marshalled is a
// programming error: it degrades to a plain 500 and returns nil.
func WriteEnvelope(w http.ResponseWriter, status int, payload any) []byte {
	body, err := Render(payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	WriteRendered(w, status, body)
	return body
}

// WriteError answers a structured error, mirroring RetryAfterSec in
// the Retry-After header, and returns the rendered body like
// WriteEnvelope.
func WriteError(w http.ResponseWriter, status int, body schema.ErrorResponse) []byte {
	if body.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSec))
	}
	return WriteEnvelope(w, status, body)
}
