// SSE proxying with failover: GET /v1/runs/{id}/events relays a run's
// live event stream from whichever backend currently owns the run. The
// subscribe-before-post pattern holds through the gateway — the
// handler waits for the run→backend mapping that the proxy path
// records at POST time, then relays. If the upstream stream dies
// before the terminal result event (backend loss mid-run), the handler
// reconnects to the run's current backend — the failover loop may have
// moved it — and resumes. Events are deduplicated by broker sequence
// number: re-execution on a failover backend replays the same
// deterministic events with the same sequence numbers, so the client
// sees each seq exactly once and the merged stream is byte-identical
// to an uninterrupted one.
package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"roload/internal/httpapi"
	"roload/internal/schema"
	"roload/internal/telemetry"
)

// sseRetryDelay paces the wait for a run mapping and the reconnect
// after an upstream loss.
const sseRetryDelay = 10 * time.Millisecond

func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidRunID(id) {
		gwError(w, http.StatusBadRequest, "validation", fmt.Sprintf("invalid run id %q", id))
		return
	}
	httpapi.SetRunID(r.Context(), id)
	fl, ok := w.(http.Flusher)
	if !ok {
		gwError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	// The stream ends with the client, or when the gateway shuts down.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(g.baseCtx, cancel)
	defer stop()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var lastSeq uint64
	seen := false
	for ctx.Err() == nil {
		backend, ok := g.runs.Get(id)
		if !ok || !g.prober.admitted(backend) {
			// Not posted yet (subscribe-before-post), or the owner is
			// gone and the failover loop has not re-homed the run yet.
			if sleepCtx(ctx, sseRetryDelay) != nil {
				return
			}
			continue
		}
		done, err := g.relayEvents(ctx, w, fl, backend, id, &lastSeq, &seen)
		if done || err != nil && ctx.Err() != nil {
			return
		}
		// Upstream ended without a terminal result: the backend died or
		// drained mid-run. Loop — the proxy path moves the run mapping
		// when it fails over, and the re-execution republishes the
		// stream.
		if sleepCtx(ctx, sseRetryDelay) != nil {
			return
		}
	}
}

// relayEvents attaches to one backend's stream for run id and forwards
// frames until the terminal result event (done=true), upstream EOF, or
// ctx cancellation. Frames at or below *lastSeq are dropped — already
// forwarded from a previous attachment.
func (g *Gateway) relayEvents(ctx context.Context, w http.ResponseWriter, fl http.Flusher,
	backend, id string, lastSeq *uint64, seen *bool) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := g.sseClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			// Only a failure of the backend is evidence against it, not
			// one caused by the subscriber leaving or the gateway closing.
			g.prober.noteProxyFailure(backend, err, true)
		}
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return false, fmt.Errorf("gateway: event stream on %s answered %d", backend, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() == 0 {
				continue
			}
			var ev schema.RunEvent
			if err := json.Unmarshal([]byte(data.String()), &ev); err == nil {
				if !*seen || ev.Seq > *lastSeq {
					*seen = true
					*lastSeq = ev.Seq
					if err := writeSSEFrame(w, ev); err != nil {
						return false, err
					}
					fl.Flush()
				}
				if ev.Kind == schema.EventResult {
					return true, nil
				}
			}
			data.Reset()
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		}
	}
	return false, sc.Err()
}

// writeSSEFrame renders one event exactly as the backend does, so the
// relayed stream is byte-identical to a direct subscription.
func writeSSEFrame(w http.ResponseWriter, ev schema.RunEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
