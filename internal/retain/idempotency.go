// Idempotency keys: a client that retries a request (backoff, hedging,
// reconnect, gateway failover) sends the same Idempotency-Key header,
// and the tier executes the body at most once per remembered key. The
// first request under a key is the leader and executes normally;
// concurrent duplicates park until the leader's verdict and then replay
// its response byte-for-byte, marked Idempotency-Replayed: true.
//
// Only a conclusive response is stored: one the handler actually wrote,
// whose status a resilient client does not retry. A 5xx, a shed
// 429/503, a panic or a handler that wrote nothing aborts the entry,
// so the retry re-executes instead of replaying the failure forever.
// Both tiers remember keys in a Memo, at most 1024 of them, evicting
// the oldest first; an evicted key re-executes, and execution is
// deterministic, so the bytes repeat.
package retain

import (
	"bytes"
	"net/http"

	"roload/internal/schema"
)

// replayHeaders are the response headers a replay restores alongside
// the status and body.
var replayHeaders = [...]string{"Content-Type", "Location", "Roload-Trace", "Roload-Gateway-Backend"}

// Idempotency is the idempotency-key middleware of one tier. Create
// with NewIdempotency and wrap each keyed POST route with Wrap.
type Idempotency struct {
	memo *Memo[string, response]
}

// response is a leader's recorded answer, replayed to its followers.
type response struct {
	status int
	body   []byte
	header [len(replayHeaders)]string // "" where the response had none
}

// NewIdempotency returns an empty middleware holding at most 1024 keys.
func NewIdempotency() *Idempotency { return newIdempotency(memoCap) }

func newIdempotency(cap int) *Idempotency {
	return &Idempotency{memo: newMemo[string, response](cap)}
}

// Metrics snapshots the cache for /metrics: Misses are executions led,
// Hits are replays served.
func (c *Idempotency) Metrics() schema.CacheMetrics { return c.memo.Metrics() }

// Wrap adds idempotency-key handling around h. Requests without the
// header pass straight through.
func (c *Idempotency) Wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			h(w, r)
			return
		}
		resp, led, err := c.memo.Do(r.Context(), key, func() (response, bool) {
			rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK}
			h(rw, r)
			resp := response{status: rw.status, body: rw.body.Bytes()}
			for i, k := range replayHeaders {
				resp.header[i] = rw.Header().Get(k)
			}
			return resp, rw.wrote && !retryableStatus(rw.status)
		})
		switch {
		case err != nil:
			// Nobody is left to read an answer; the leader carries on.
			w.WriteHeader(http.StatusGatewayTimeout)
		case !led:
			for i, k := range replayHeaders {
				if v := resp.header[i]; v != "" {
					w.Header().Set(k, v)
				}
			}
			w.Header().Set("Idempotency-Replayed", "true")
			w.WriteHeader(resp.status)
			w.Write(resp.body) //nolint:errcheck // client gone: nothing to report to
		}
	}
}

// recordingWriter records the response while streaming it to the
// client. wrote tells a real answer from a handler that bailed without
// writing: the default empty 200 is not a conclusive answer.
type recordingWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	body   bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// retryableStatus reports whether a status is one a resilient client
// retries — exactly the statuses that must not be stored.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}
