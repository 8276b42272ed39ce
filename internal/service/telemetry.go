// Live-telemetry surface of the service: run ids, span traces, the
// run-event stream endpoints, and the bounded trace registry.
//
// Every run gets a run id — minted by the server, or supplied by the
// client in the Roload-Trace request header (that is how the client
// subscribes to a run's event stream before posting it). The id is
// echoed in the Roload-Trace response header rather than the body, so
// successful responses stay byte-identical to the CLI tools' output;
// error envelopes, which have no CLI twin, carry it inline. The
// server's spans parent under the client's attempt span when the
// request names one in Roload-Trace-Parent, which is what links the
// two sides' trace documents into one tree after a merge.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"roload/internal/schema"
	"roload/internal/telemetry"
)

// runInfoKey carries the per-request runInfo holder installed by the
// logged middleware.
type runInfoKey struct{}

// runInfo is the mutable per-request telemetry identity: the handler
// fills it in once the run id is known, and the middleware's log lines
// and panic reports read it back.
type runInfo struct {
	mu    sync.Mutex
	runID string
}

func (ri *runInfo) set(id string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.runID = id
	ri.mu.Unlock()
}

func (ri *runInfo) get() string {
	if ri == nil {
		return ""
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.runID
}

func runInfoFrom(ctx context.Context) *runInfo {
	ri, _ := ctx.Value(runInfoKey{}).(*runInfo)
	return ri
}

// storedResult is one completed run's rendered answer: the HTTP status
// and the exact response bytes, so GET /v1/runs/{id} replays what the
// synchronous caller saw, byte for byte.
type storedResult struct {
	status int
	body   []byte
}

// keyCheckCounters tracks per-hardening-mode run and ROLoad-violation
// counts — the live key-check fault-rate gauge of /metrics.
type keyCheckCounters struct {
	runs, violations uint64
}

func (s *Server) noteKeyCheck(mode string, violated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keyChecks == nil {
		s.keyChecks = make(map[string]*keyCheckCounters)
	}
	c := s.keyChecks[mode]
	if c == nil {
		c = &keyCheckCounters{}
		s.keyChecks[mode] = c
	}
	c.runs++
	if violated {
		c.violations++
	}
}

// noteEngineRun counts one executed run request against its engine —
// the /metrics gauge of how much traffic each engine carries.
func (s *Server) noteEngineRun(engine string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engineRuns == nil {
		s.engineRuns = make(map[string]uint64)
	}
	s.engineRuns[engine]++
}

// renderEnvelope marshals a roload-serve/v1 envelope exactly as
// writeEnvelope would stream it, so one rendering can be both written
// to the synchronous response and embedded verbatim in the terminal
// stream event.
func renderEnvelope(payload any) ([]byte, error) {
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

// writeRendered writes a pre-rendered envelope body.
func writeRendered(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone: nothing to report to
}

// handleEvents is GET /v1/runs/{id}/events: a Server-Sent Events
// stream of the run's live events. Subscribing before the run is
// posted is the intended pattern (the client mints the run id); late
// subscribers replay the broker's retained history. The stream ends
// with the terminal result event, on client disconnect, or when the
// server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidRunID(id) {
		validationError(fmt.Sprintf("invalid run id %q", id)).write(w)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		internalError(fmt.Errorf("response writer cannot stream")).write(w)
		return
	}
	sub := s.broker.Subscribe(id)
	defer s.broker.Unsubscribe(id, sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one run event as an SSE frame: the broker sequence
// number as the event id (consumers spot dropped events by a skip),
// the kind as the event name, and the JSON record as the data line.
func writeSSE(w http.ResponseWriter, ev schema.RunEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}

// handleTrace is GET /v1/runs/{id}/trace: the server-side
// roload-trace/v1 span document of a completed run. The body is the
// bare document (not a roload-serve/v1 envelope) so it can be merged
// with the client-side document or fed to the Perfetto exporter
// directly.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidRunID(id) {
		validationError(fmt.Sprintf("invalid run id %q", id)).write(w)
		return
	}
	doc, ok := s.traces.Get(id)
	if !ok {
		notFoundError(fmt.Sprintf("no trace for run %q (traces are retained for the last %d runs)", id, s.traces.Cap())).write(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	doc.WriteJSON(w) //nolint:errcheck // client gone: nothing to report to
}

// runLog emits one run-lifecycle log line. Every line carries the run
// id, so a request's accept/queue/start/finish (and shed/panic) lines
// grep together.
func (s *Server) runLog(ctx context.Context, msg, runID string, attrs ...any) {
	args := append([]any{"run_id", runID}, attrs...)
	s.cfg.Logger.InfoContext(ctx, msg, args...)
}
